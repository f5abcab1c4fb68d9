"""REST endpoints: status codes, payloads, fault injection, crash recovery."""

import http.client
import json
import random
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlparse
from contextlib import contextmanager

import pytest

from dnavault.config import ServiceConfig, default_topology
from dnavault.contract import StoreParams
from dnavault.service import make_server


@contextmanager
def running_service(state_dir, **config_overrides):
    config = ServiceConfig(state_dir=state_dir, port=0, **config_overrides)
    if not (state_dir / "config.json").exists():
        config.save()
    server = make_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield base
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def call(base, method, path, body=None, headers=None):
    req = urllib.request.Request(base + path, data=body, method=method, headers=headers or {})
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def upload(base, data, owner="alice", key=None):
    headers = {"X-Owner": owner}
    if key:
        headers["X-Key"] = key
    return call(base, "POST", "/files", data, headers)


@pytest.fixture
def service(tmp_path):
    with running_service(tmp_path / "state") as base:
        yield base


def test_upload_download_cycle(service):
    data = random.Random(0).randbytes(3000)
    status, _, body = upload(service, data)
    assert status == 201
    receipt = json.loads(body)
    assert set(receipt) == {"file_hash", "block_index", "bead_ids", "placement"}
    assert receipt["block_index"] == 1

    status, headers, body = call(service, "GET", f"/files/{receipt['file_hash']}", headers={"X-Requester": "alice"})
    assert status == 200
    assert body == data
    assert int(headers["Content-Length"]) == len(data)
    assert headers["Content-Type"] == "application/octet-stream"


def test_upload_error_statuses(service):
    data = b"same bytes"
    assert upload(service, data)[0] == 201
    status, _, body = upload(service, data)
    assert status == 409
    assert json.loads(body)["error"] == "DuplicateFile"
    status, _, body = upload(service, b"")
    assert status == 400


def test_download_error_statuses(service):
    status, _, body = call(service, "GET", f"/files/{'0' * 64}", headers={"X-Requester": "alice"})
    assert status == 404
    assert json.loads(body)["error"] == "UnknownFile"

    data = b"permissioned content"
    receipt = json.loads(upload(service, data)[2])
    status, _, body = call(service, "GET", f"/files/{receipt['file_hash']}", headers={"X-Requester": "eve"})
    assert status == 403
    assert json.loads(body)["error"] == "PermissionDenied"


def test_permission_endpoint(service):
    receipt = json.loads(upload(service, b"shared file")[2])
    h = receipt["file_hash"]

    def perm(action, grantee, owner="alice"):
        body = json.dumps({"action": action, "grantee": grantee}).encode()
        return call(service, "POST", f"/files/{h}/permissions", body, {"X-Owner": owner})

    status, _, body = perm("grant", "bob")
    assert status == 200
    assert json.loads(body)["block"] == 2
    assert call(service, "GET", f"/files/{h}", headers={"X-Requester": "bob"})[0] == 200

    status, _, _ = perm("revoke", "bob")
    assert status == 200
    assert call(service, "GET", f"/files/{h}", headers={"X-Requester": "bob"})[0] == 403

    assert perm("grant", "carol", owner="mallory")[0] == 403
    status, _, body = call(
        service, "POST", f"/files/{'1' * 64}/permissions",
        json.dumps({"action": "grant", "grantee": "bob"}).encode(), {"X-Owner": "alice"},
    )
    assert status == 404
    assert perm("escalate", "bob")[0] == 400
    status, _, _ = call(service, "POST", f"/files/{h}/permissions", b"not json", {"X-Owner": "alice"})
    assert status == 400


def test_chain_endpoints(service):
    status, _, body = call(service, "GET", "/chain")
    assert status == 200
    info = json.loads(body)
    assert info["height"] == 0
    assert info["valid"] is True

    upload(service, b"first file")
    info = json.loads(call(service, "GET", "/chain")[2])
    assert info["height"] == 1

    status, _, body = call(service, "GET", "/chain/blocks/0")
    assert status == 200
    block = json.loads(body)
    assert block["index"] == 0
    assert block["prev_hash"] == "0" * 64
    assert info["tip_hash"] == json.loads(call(service, "GET", "/chain/blocks/1")[2])["block_hash"]

    assert call(service, "GET", "/chain/blocks/99")[0] == 404


def address(base) -> tuple[str, int]:
    url = urlparse(base)
    return url.hostname, url.port


def test_keep_alive_responses_do_not_wait_for_delayed_acks(service):
    # Headers and body leave in two writes; with Nagle's algorithm on, each
    # response waited ~40 ms for the client's delayed ACK.
    conn = http.client.HTTPConnection(*address(service), timeout=5)
    times = []
    try:
        for _ in range(10):
            start = time.perf_counter()
            conn.request("GET", "/chain")
            resp = conn.getresponse()
            resp.read()
            times.append(time.perf_counter() - start)
            assert resp.status == 200
    finally:
        conn.close()
    assert statistics.median(times) < 0.020, times


def test_negative_content_length_is_rejected(service):
    # rfile.read(-1) would block until the client hung up
    request = b"POST /files HTTP/1.1\r\nHost: x\r\nX-Owner: alice\r\nContent-Length: -1\r\n\r\nabc"
    with socket.create_connection(address(service), timeout=3) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(4096):  # the server closes the connection after replying
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(body)["error"] == "BadRequest"


def test_node_endpoints_and_audit(service):
    receipt = json.loads(upload(service, b"replicated data")[2])
    status, _, body = call(service, "GET", "/nodes")
    assert status == 200
    info = json.loads(body)
    assert len(info["nodes"]) == 10
    assert all(n["online"] for n in info["nodes"])
    assert info["audit"]["under_replicated"] == []

    victim = receipt["placement"][0][1]
    status, _, body = call(service, "POST", f"/nodes/{victim}/fail")
    assert status == 200
    assert json.loads(body) == {"node_id": victim, "online": False}

    info = json.loads(call(service, "GET", "/nodes")[2])
    assert any(n["node_id"] == victim and not n["online"] for n in info["nodes"])
    flagged = info["audit"]["under_replicated"]
    assert flagged and all(e["live"] == 2 for e in flagged)
    # reads still succeed through the surviving replicas
    assert call(service, "GET", f"/files/{receipt['file_hash']}", headers={"X-Requester": "alice"})[0] == 200

    assert call(service, "POST", f"/nodes/{victim}/restore")[0] == 200
    info = json.loads(call(service, "GET", "/nodes")[2])
    assert info["audit"]["under_replicated"] == []

    assert call(service, "POST", "/nodes/ghost/fail")[0] == 404
    assert call(service, "GET", "/unknown/route")[0] == 404


def test_insufficient_nodes_is_503(tmp_path):
    with running_service(
        tmp_path / "state",
        topology=default_topology(2),
        store=StoreParams(replication=3),
    ) as base:
        status, _, body = upload(base, b"cannot place this")
        assert status == 503
        assert json.loads(body)["error"] == "InsufficientNodes"


def test_encrypted_upload_via_headers(service):
    data = random.Random(5).randbytes(600)
    status, _, body = upload(service, data, key="ACGTACGT")
    assert status == 201
    h = json.loads(body)["file_hash"]
    ok_status, _, got = call(service, "GET", f"/files/{h}", headers={"X-Requester": "alice", "X-Key": "ACGTACGT"})
    assert ok_status == 200 and got == data
    # without the key the decoded bytes cannot match the recorded hash
    status, _, body = call(service, "GET", f"/files/{h}", headers={"X-Requester": "alice"})
    assert status == 500
    assert json.loads(body)["error"] == "IntegrityMismatch"


def test_crash_consistency_across_restart(tmp_path):
    state = tmp_path / "state"
    data = random.Random(9).randbytes(4096)
    with running_service(state) as base:
        receipt = json.loads(upload(base, data)[2])
        tip_before = json.loads(call(base, "GET", "/chain")[2])["tip_hash"]
    # process gone; a fresh service on the same directory must agree
    with running_service(state) as base:
        info = json.loads(call(base, "GET", "/chain")[2])
        assert info["tip_hash"] == tip_before
        assert info["valid"] is True
        status, _, body = call(base, "GET", f"/files/{receipt['file_hash']}", headers={"X-Requester": "alice"})
        assert status == 200 and body == data
        # and the restarted service still accepts new uploads
        assert upload(base, b"post-restart upload")[0] == 201


def read_until_closed(sock) -> tuple[bytes, bool]:
    """Everything the server sends, and whether it closed the connection (False: it went quiet for 3 s)."""
    reply = b""
    try:
        while chunk := sock.recv(4096):
            reply += chunk
    except socket.timeout:
        return reply, False
    return reply, True


def test_an_unread_body_is_not_parsed_as_the_next_request(service):
    # Routes that ignore their body used to leave it on the keep-alive stream.
    smuggled = b"POST /nodes/node-02/fail HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
    conn = http.client.HTTPConnection(*address(service), timeout=5)
    try:
        for method, path in (("POST", "/nodes/node-01/restore"), ("GET", "/chain"), ("POST", "/nowhere")):
            conn.request(method, path, body=smuggled)
            resp = conn.getresponse()
            resp.read()
            assert resp.status == (404 if path == "/nowhere" else 200)
        conn.request("GET", "/nodes")
        nodes = json.loads(conn.getresponse().read())["nodes"]
    finally:
        conn.close()
    assert all(node["online"] for node in nodes)


@pytest.mark.parametrize("length", [b"abc", b"-1", b"1_0", b"+3", b"0x10"])
def test_an_unreadable_content_length_closes_the_connection(service, length):
    request = b"POST /files HTTP/1.1\r\nHost: x\r\nX-Owner: alice\r\nContent-Length: " + length + b"\r\n\r\n"
    with socket.create_connection(address(service), timeout=3) as sock:
        sock.sendall(request + b"GET /chain HTTP/1.1\r\nHost: x\r\n\r\n")
        reply, closed = read_until_closed(sock)
    assert closed
    assert reply.count(b"HTTP/1.1 ") == 1  # the GET behind the unreadable body is never answered
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(body)["error"] == "BadRequest"
