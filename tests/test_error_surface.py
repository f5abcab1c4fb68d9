"""One verdict per failure: the REST status and error name, and the CLI exit code, local and over --url."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from dnavault import errors, service
from dnavault.cli import main
from dnavault.config import ServiceConfig
from dnavault.service import StorageService, make_server

# (exception, HTTP status, CLI exit code); the CLI gives the same code with and without --url.
CASES = [
    (errors.EmptyInput("empty"), 400, 2),
    (errors.DuplicateFile("twice"), 409, 3),
    (errors.UnknownFile("unknown"), 404, 4),
    (errors.PermissionDenied("denied"), 403, 5),
    (errors.NotOwner("not yours"), 403, 6),
    (errors.InsufficientNodes("few nodes"), 503, 7),
    (errors.BeadUnavailable("bead gone"), 503, 8),
    (errors.DecodeFailed(3, 32), 500, 9),
    (errors.IntegrityMismatch("bad hash"), 500, 10),
    (errors.UnknownNode("ghost"), 404, 11),
    (service.BadRequest("malformed"), 400, 2),
    (ValueError("plain value error"), 400, 2),
    (errors.LengthError("short"), 400, 1),
    (errors.InvalidTransaction(0, "unmapped"), 500, 1),
]
FILE_HASH = "ab" * 32


@pytest.fixture
def served(tmp_path):
    """A state directory and the URL of a REST service running on it."""
    state = tmp_path / "state"
    config = ServiceConfig(state_dir=state, port=0)
    config.save()
    server = make_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield state, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def http(url, method, path, body=None, headers=None):
    req = urllib.request.Request(url + path, data=body, method=method, headers=headers or {})
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.mark.parametrize("exc, status, exit_code", CASES, ids=[type(c[0]).__name__ for c in CASES])
def test_each_error_has_one_status_and_one_exit_code(served, tmp_path, capsys, monkeypatch, exc, status, exit_code):
    def fail(*args):
        raise exc

    monkeypatch.setattr(StorageService, "download", fail)
    state, url = served

    got_status, payload = http(url, "GET", f"/files/{FILE_HASH}", headers={"X-Requester": "alice"})
    assert (got_status, payload["error"], payload["detail"]) == (status, type(exc).__name__, str(exc))

    for where in (["--state", str(state)], ["--url", url]):
        code = main([*where, "download", FILE_HASH, "--as", "alice", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == exit_code, where
        assert str(exc) in err


def test_unknown_routes_and_missing_blocks_are_not_found(served, capsys):
    _, url = served
    for method, path in (("GET", "/nowhere"), ("POST", "/nowhere"), ("GET", "/chain/blocks/7")):
        status, payload = http(url, method, path)
        assert (status, payload["error"]) == (404, "NotFound"), path
    assert main(["--url", url + "/nowhere", "chain", "show"]) == 4
    assert "NotFound" in capsys.readouterr().err


def test_malformed_json_is_bad_request(served):
    _, url = served
    status, payload = http(url, "POST", f"/files/{FILE_HASH}/permissions", b"not json", {"X-Owner": "alice"})
    assert (status, payload["error"]) == (400, "BadRequest")


@pytest.mark.parametrize(
    "body, error",
    [
        (b"[1]", "BadRequest"),
        (b'"x"', "BadRequest"),
        (b"null", "BadRequest"),
        (b'{"action": "grant", "grantee": ["x"]}', "ValueError"),
        (b'{"action": "grant", "grantee": 5}', "ValueError"),
        (b'{"action": "grant", "grantee": ""}', "ValueError"),
        (b'{"action": ["grant"], "grantee": "bob"}', "ValueError"),
    ],
)
def test_malformed_permission_bodies_are_rejected_without_a_write(served, body, error):
    _, url = served
    status, receipt = http(url, "POST", "/files", b"shared file", {"X-Owner": "alice"})
    assert status == 201
    before = http(url, "GET", "/chain")[1]
    headers = {"X-Owner": "alice", "Content-Type": "application/json"}
    status, payload = http(url, "POST", f"/files/{receipt['file_hash']}/permissions", body, headers)
    assert (status, payload["error"]) == (400, error)
    assert http(url, "GET", "/chain")[1] == before


def test_a_torn_chain_fails_every_local_command_with_the_chain_exit_code(tmp_path, capsys):
    state = str(tmp_path / "state")
    payload = tmp_path / "payload.bin"
    payload.write_bytes(b"some bytes to keep")
    assert main(["--state", state, "upload", str(payload), "--owner", "alice"]) == 0
    chain = tmp_path / "state" / "chain.jsonl"
    chain.write_bytes(chain.read_bytes()[:-20])
    capsys.readouterr()

    for command in (["chain", "show"], ["upload", str(payload), "--owner", "bob"], ["nodes", "list"]):
        assert main(["--state", state, *command]) == 12, command
        err = capsys.readouterr().err
        assert err.startswith("CorruptChain: ") and "at height 1: " in err, err
        assert err.count("\n") == 1
    assert main(["--state", state, "chain", "verify"]) == 12
    assert "INVALID at height 1" in capsys.readouterr().out
