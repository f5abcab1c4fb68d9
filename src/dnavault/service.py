"""HTTP/1.1 REST facade over the storage contract.

Endpoints (JSON responses unless noted):

    POST /files                      raw body; headers X-Owner, optional X-Key -> 201 receipt
    GET  /files/{hash}               header X-Requester, optional X-Key -> 200 raw bytes
    POST /files/{hash}/permissions   JSON {"action": "grant"|"revoke", "grantee": ...}; X-Owner
    GET  /chain                      {"height", "tip_hash", "valid", ["failure_height"]}
    GET  /chain/blocks/{i}           canonical block JSON
    GET  /nodes                      node states plus a redundancy audit
    POST /nodes/{id}/fail            mark a node offline
    POST /nodes/{id}/restore         bring it back

A failure answers ``{"error": <class name>, "detail": <message>}`` with the
error class's ``http_status`` (the table is in ``errors.py``), including
``BadRequest`` for an unreadable body and ``NotFound`` for an unknown route
or block. Any other ValueError is 400 and any other exception 500.

Identity is carried in plain headers; there is no authentication layer.
All mutations funnel through one lock (single writer); reads run
concurrently against the current snapshot.
"""

from __future__ import annotations

import json
import logging
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .config import ServiceConfig
from .contract import StorageContract
from .errors import BadRequest, EmptyInput, NotFound, StorageError
from .network import Cluster

log = logging.getLogger(__name__)

class StorageService:
    """Contract engine bound to a state directory, shared by HTTP and CLI."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.cluster = Cluster.from_topology(config.topology)
        self.contract = StorageContract(
            cluster=self.cluster,
            validators=config.validator_objects(),
            defaults=config.store,
            state_dir=config.state_dir,
        )
        self._write_lock = threading.Lock()

    # --- operations (raise StorageError subclasses on failure) ---

    def upload(self, owner: str, body: bytes, key: str | None = None) -> dict:
        with self._write_lock:
            receipt = self.contract.upload_file(owner, body, key)
        return receipt.to_dict()

    def download(self, requester: str, file_hash: str, key: str | None = None) -> bytes:
        return self.contract.download_file(requester, file_hash, key)

    def change_permission(self, owner: str, file_hash: str, action: str, grantee: str) -> int:
        if action not in ("grant", "revoke"):
            raise ValueError(f"action must be 'grant' or 'revoke', not {action!r}")
        if not isinstance(grantee, str) or not grantee:
            raise ValueError(f"grantee must be a non-empty string, not {grantee!r}")
        with self._write_lock:
            if action == "grant":
                return self.contract.grant_permission(owner, file_hash, grantee)
            return self.contract.revoke_permission(owner, file_hash, grantee)

    def chain_info(self) -> dict:
        chain = self.contract.chain
        ok, height = self.contract.ledger.verify()
        info = {"height": chain[-1].index, "tip_hash": chain[-1].block_hash, "valid": ok}
        if not ok:
            info["failure_height"] = height
        return info

    def block_at(self, index: int) -> dict:
        chain = self.contract.chain
        if not 0 <= index < len(chain):
            raise NotFound(f"no block at {index}")
        return chain[index].to_dict()

    def nodes_info(self) -> dict:
        report = self.cluster.audit_redundancy(self.contract.ledger.records)
        return {
            "nodes": [
                {"node_id": n.node_id, "online": n.online, "beads": len(n.beads)}
                for n in self.cluster.nodes.values()
            ],
            "audit": {
                "placements": len(report.entries),
                "under_replicated": [
                    {
                        "file_hash": e.file_hash,
                        "bead_id": e.bead_id,
                        "expected": e.replicas_expected,
                        "live": e.replicas_live,
                    }
                    for e in report.flagged
                ],
            },
        }

    def set_node(self, node_id: str, online: bool) -> dict:
        with self._write_lock:
            node = self.cluster.restore_node(node_id) if online else self.cluster.fail_node(node_id)
            # fault state survives restarts and separate CLI invocations
            for entry in self.config.topology:
                if entry["node_id"] == node_id:
                    entry["online"] = node.online
            self.config.save()
        return {"node_id": node.node_id, "online": node.online}


_FILE_ROUTE = re.compile(r"^/files/([0-9a-fA-F]{64})$")
_PERM_ROUTE = re.compile(r"^/files/([0-9a-fA-F]{64})/permissions$")
_BLOCK_ROUTE = re.compile(r"^/chain/blocks/(\d+)$")
_NODE_ROUTE = re.compile(r"^/nodes/([^/]+)/(fail|restore)$")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "dnavault"
    # Headers and body go out in separate writes; with Nagle on, the body
    # would wait for the client's delayed ACK (~40 ms per response).
    disable_nagle_algorithm = True

    @property
    def service(self) -> StorageService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # route request logs away from stderr
        log.debug("%s %s", self.address_string(), fmt % args)

    # --- response helpers ---

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_bytes(self, payload: bytes) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _body(self) -> bytes:
        """Read the whole body, so that none of it is left on the stream to be parsed as the next request."""
        raw = (self.headers.get("Content-Length") or "0").strip()
        if not (raw.isascii() and raw.isdigit()):  # a negative length would block rfile.read until hang-up
            self.close_connection = True  # the body's end is unknown, so the stream cannot be reused
            raise BadRequest(f"unreadable Content-Length {raw!r}")
        length = int(raw)
        return self.rfile.read(length) if length else b""

    # --- dispatch ---

    def do_GET(self):
        self._answer(self._get)

    def do_POST(self):
        self._answer(self._post)

    def _answer(self, route) -> None:
        """Run ``route`` on the request body; a failure becomes its error's status and a JSON ``error``/``detail``."""
        try:
            route(self._body())
        except Exception as exc:  # noqa: BLE001 - every failure becomes a status
            if isinstance(exc, StorageError):
                status = exc.http_status
            elif isinstance(exc, ValueError):
                status = 400
            else:
                status = 500
                log.exception("unhandled error on %s %s", self.command, self.path)
            self._send_json(status, {"error": type(exc).__name__, "detail": str(exc)})

    def _get(self, body: bytes) -> None:  # a GET body is read and ignored
        if match := _FILE_ROUTE.match(self.path):
            requester = self.headers.get("X-Requester", "")
            key = self.headers.get("X-Key") or None
            self._send_bytes(self.service.download(requester, match.group(1).lower(), key))
        elif self.path == "/chain":
            self._send_json(200, self.service.chain_info())
        elif match := _BLOCK_ROUTE.match(self.path):
            self._send_json(200, self.service.block_at(int(match.group(1))))
        elif self.path == "/nodes":
            self._send_json(200, self.service.nodes_info())
        else:
            raise NotFound(self.path)

    def _post(self, body: bytes) -> None:
        if self.path == "/files":
            if not body:
                raise EmptyInput("request body is empty")
            owner = self.headers.get("X-Owner", "")
            key = self.headers.get("X-Key") or None
            self._send_json(201, self.service.upload(owner, body, key))
        elif match := _PERM_ROUTE.match(self.path):
            try:
                payload = json.loads(body or b"{}")
            except json.JSONDecodeError as exc:
                raise BadRequest(f"invalid JSON body: {exc}") from None
            if not isinstance(payload, dict):
                raise BadRequest(f"body must be a JSON object, not {type(payload).__name__}")
            owner = self.headers.get("X-Owner", "")
            height = self.service.change_permission(
                owner, match.group(1).lower(), payload.get("action", ""), payload.get("grantee", "")
            )
            self._send_json(200, {"block": height})
        elif match := _NODE_ROUTE.match(self.path):
            node_id, action = match.groups()
            self._send_json(200, self.service.set_node(node_id, action == "restore"))
        else:
            raise NotFound(self.path)


def make_server(config: ServiceConfig) -> ThreadingHTTPServer:
    """Build (but do not start) the HTTP server; port 0 picks a free port."""
    service = StorageService(config)
    server = ThreadingHTTPServer((config.host, config.port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    return server


def serve(config: ServiceConfig) -> None:
    server = make_server(config)
    host, port = server.server_address[:2]
    print(f"dnavault service on http://{host}:{port} (state: {config.state_dir})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
