"""Command-line interface.

Every data subcommand is a thin client of the corresponding REST endpoint:
point it at a running service with ``--url`` and it speaks HTTP; without
``--url`` it opens the state directory (``--state``, else $ETRUS_STATE_DIR,
else ./state) and calls the very same service operations in-process.

Exit codes are stable per error class so scripts can branch on them, and
both modes give the same one. A ``StorageError`` exits with its class's
``exit_code`` and prints ``Name: detail`` on stderr; the table lives on the
classes in ``errors.py``. ``CorruptChain`` (12) is the exit of any command
that meets a torn or tampered ``chain.jsonl``, not only ``chain verify``.
Codes that belong to the CLI itself:

    0  success                      2  usage / bad input (a plain ValueError)
    1  unexpected failure          13  connection error
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from . import errors
from .config import ServiceConfig, resolve_state_dir
from .contract import CHAIN_FILE, StorageContract, StoreParams
from .errors import CorruptChain, DecodeFailed, StorageError
from .ledger import Validator
from .network import Cluster
from .service import StorageService, serve
from .synthesis import ErrorModel

EXIT_USAGE = 2
EXIT_CHAIN_INVALID = CorruptChain.exit_code
EXIT_CONNECTION = 13


class CliFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _exit_code_for(error_name: str) -> int:
    """The exit code of an error the service named in a reply."""
    cls = getattr(errors, error_name, None)
    if isinstance(cls, type) and issubclass(cls, StorageError):
        return cls.exit_code
    return EXIT_USAGE if error_name == "ValueError" else 1


# --- REST client ---------------------------------------------------------------


class HttpClient:
    """Talks to a running service over REST, with the methods of ``StorageService``."""

    def __init__(self, base_url: str):
        self.base_url = base_url.rstrip("/")

    def _request(self, method: str, path: str, body: bytes | None = None, headers: dict | None = None) -> bytes:
        """The reply body; an error reply raises ``CliFailure`` with the named error's exit code."""
        req = urllib.request.Request(self.base_url + path, data=body, method=method, headers=headers or {})
        try:
            with urllib.request.urlopen(req) as resp:
                return resp.read()
        except urllib.error.HTTPError as exc:
            payload = json.loads(exc.read().decode("utf-8"))
            name = payload.get("error", "Error")
            raise CliFailure(_exit_code_for(name), f"{name}: {payload.get('detail', '')}") from None
        except urllib.error.URLError as exc:
            raise CliFailure(EXIT_CONNECTION, f"cannot reach {self.base_url}: {exc.reason}") from exc

    def upload(self, owner: str, data: bytes, key: str | None) -> dict:
        headers = {"X-Owner": owner, "Content-Type": "application/octet-stream"}
        if key:
            headers["X-Key"] = key
        return json.loads(self._request("POST", "/files", data, headers))

    def download(self, requester: str, file_hash: str, key: str | None) -> bytes:
        headers = {"X-Requester": requester}
        if key:
            headers["X-Key"] = key
        return self._request("GET", f"/files/{file_hash}", headers=headers)

    def change_permission(self, owner: str, file_hash: str, action: str, grantee: str) -> int:
        body = json.dumps({"action": action, "grantee": grantee}).encode("utf-8")
        headers = {"X-Owner": owner, "Content-Type": "application/json"}
        return json.loads(self._request("POST", f"/files/{file_hash}/permissions", body, headers))["block"]

    def chain_info(self) -> dict:
        return json.loads(self._request("GET", "/chain"))

    def nodes_info(self) -> dict:
        return json.loads(self._request("GET", "/nodes"))

    def set_node(self, node_id: str, online: bool) -> dict:
        action = "restore" if online else "fail"
        return json.loads(self._request("POST", f"/nodes/{node_id}/{action}"))


def _client(args) -> HttpClient | StorageService:
    if args.url:
        return HttpClient(args.url)
    return StorageService(ServiceConfig.load_or_create(resolve_state_dir(args.state)))


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


# --- subcommand implementations ---------------------------------------------------


def _cmd_serve(args) -> int:
    config = ServiceConfig.load_or_create(resolve_state_dir(args.state), host=args.host, port=args.port)
    serve(config)
    return 0


def _cmd_upload(args) -> int:
    data = Path(args.path).read_bytes()
    receipt = _client(args).upload(args.owner, data, args.key)
    _emit(receipt)
    return 0


def _cmd_download(args) -> int:
    data = _client(args).download(args.requester, args.hash, args.key)
    out = Path(args.out)
    out.write_bytes(data)
    _emit({"file_hash": args.hash, "bytes": len(data), "out": str(out)})
    return 0


def _cmd_perms(args) -> int:
    _emit({"block": _client(args).change_permission(args.owner, args.hash, args.action, args.user)})
    return 0


def _cmd_chain_show(args) -> int:
    _emit(_client(args).chain_info())
    return 0


def _cmd_chain_verify(args) -> int:
    if args.url:
        info = HttpClient(args.url).chain_info()
    elif not (resolve_state_dir(args.state) / CHAIN_FILE).exists():
        info = {"valid": False, "failure_height": 0}  # no chain to verify; opening would write a genesis
    else:
        try:
            info = _client(args).chain_info()  # the open every local command takes, bead headers checked
        except CorruptChain as exc:
            info = {"valid": False, "failure_height": exc.height}
    if info["valid"]:
        print(f"chain OK height={info['height']} tip={info['tip_hash']}")
        return 0
    print(f"chain INVALID at height {info.get('failure_height')}")
    return EXIT_CHAIN_INVALID


def _cmd_nodes_list(args) -> int:
    _emit(_client(args).nodes_info())
    return 0


def _cmd_nodes_set(args, online: bool) -> int:
    _emit(_client(args).set_node(args.node_id, online))
    return 0


def _cmd_bench(args) -> int:
    """One seeded in-memory roundtrip; prints a single machine-readable line."""
    node_count = max(args.replication, 6)
    cluster = Cluster([f"bench-{i:02d}" for i in range(node_count)])
    params = StoreParams(
        replication=args.replication,
        coverage=args.coverage,
        error_model=ErrorModel(substitution_rate=args.error_rate, rng_seed=args.seed),
    )
    contract = StorageContract(cluster, [Validator("bench", 1)], defaults=params)
    data = random.Random(args.seed).randbytes(args.size)

    start = time.perf_counter()
    ok = True
    failure = None
    receipt = None
    try:
        receipt = contract.upload_file("bench", data)
        ok = contract.download_file("bench", receipt.file_hash) == data
    except StorageError as exc:
        ok = False
        failure = exc
    elapsed = time.perf_counter() - start

    # droplets stored: screening and the peelability top-up move it off ceil(overhead * K), dropout below it
    droplets = 0
    if receipt is not None:
        droplets = sum(len(cluster.retrieve_bead(bead_id, receipt.placement).codes) for bead_id in receipt.bead_ids)
    result = {
        "ok": ok,
        "elapsed_s": round(elapsed, 3),
        "droplets": droplets,
        "size": args.size,
    }
    if failure:
        result["error"] = type(failure).__name__
    _emit(result)
    if ok:
        return 0
    return failure.exit_code if failure else DecodeFailed.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dnavault", description="Simulated DNA-bead file storage")
    parser.add_argument("--state", help="state directory (default: $ETRUS_STATE_DIR or ./state)")
    parser.add_argument("--url", help="talk to a running service instead of local state")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the REST service")
    p.add_argument("--host", default=None)
    p.add_argument("--port", type=int, default=None)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("upload", help="store a file")
    p.add_argument("path")
    p.add_argument("--owner", required=True)
    p.add_argument("--key", default=None, help="optional encryption key sequence (A/C/G/T)")
    p.set_defaults(fn=_cmd_upload)

    p = sub.add_parser("download", help="retrieve a file by content hash")
    p.add_argument("hash")
    p.add_argument("--as", dest="requester", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--key", default=None)
    p.set_defaults(fn=_cmd_download)

    p = sub.add_parser("perms", help="manage read permissions")
    perm_sub = p.add_subparsers(dest="action", required=True)
    for action in ("grant", "revoke"):
        pa = perm_sub.add_parser(action)
        pa.add_argument("hash")
        pa.add_argument("user")
        pa.add_argument("--owner", required=True)
        pa.set_defaults(fn=_cmd_perms, action=action)

    p = sub.add_parser("chain", help="inspect the ledger")
    chain_sub = p.add_subparsers(dest="chain_cmd", required=True)
    chain_sub.add_parser("show").set_defaults(fn=_cmd_chain_show)
    chain_sub.add_parser("verify").set_defaults(fn=_cmd_chain_verify)

    p = sub.add_parser("nodes", help="inspect or fault-inject storage nodes")
    nodes_sub = p.add_subparsers(dest="nodes_cmd", required=True)
    nodes_sub.add_parser("list").set_defaults(fn=_cmd_nodes_list)
    pf = nodes_sub.add_parser("fail")
    pf.add_argument("node_id")
    pf.set_defaults(fn=lambda a: _cmd_nodes_set(a, online=False))
    pr = nodes_sub.add_parser("restore")
    pr.add_argument("node_id")
    pr.set_defaults(fn=lambda a: _cmd_nodes_set(a, online=True))

    p = sub.add_parser("bench", help="benchmark harnesses")
    bench_sub = p.add_subparsers(dest="bench_cmd", required=True)
    pb = bench_sub.add_parser("roundtrip", help="seeded in-memory upload/download")
    pb.add_argument("--size", type=int, default=65536)
    pb.add_argument("--error-rate", type=float, default=0.0, dest="error_rate")
    pb.add_argument("--coverage", type=int, default=5)
    pb.add_argument("--replication", type=int, default=3)
    pb.add_argument("--seed", type=int, default=0)
    pb.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliFailure as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except StorageError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
