"""CLI subcommands, exit codes, local/HTTP parity, chain verify on tampered files."""

import json
import math
import random
import subprocess
import sys
import threading

import pytest

from dnavault.cli import EXIT_CHAIN_INVALID, main
from dnavault.config import ServiceConfig
from dnavault.service import make_server


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def state(tmp_path):
    return str(tmp_path / "state")


@pytest.fixture
def stored_file(tmp_path):
    path = tmp_path / "payload.bin"
    path.write_bytes(random.Random(3).randbytes(2500))
    return path


def test_upload_then_download(capsys, state, stored_file, tmp_path):
    code, out, _ = run_cli(capsys, "--state", state, "upload", str(stored_file), "--owner", "alice")
    assert code == 0
    receipt = json.loads(out)
    assert receipt["block_index"] == 1

    out_path = tmp_path / "fetched.bin"
    code, out, _ = run_cli(
        capsys, "--state", state, "download", receipt["file_hash"],
        "--as", "alice", "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_bytes() == stored_file.read_bytes()
    assert json.loads(out)["bytes"] == 2500


def test_distinct_exit_codes(capsys, state, stored_file, tmp_path):
    assert run_cli(capsys, "--state", state, "upload", str(stored_file), "--owner", "alice")[0] == 0
    # duplicate upload
    code, _, err = run_cli(capsys, "--state", state, "upload", str(stored_file), "--owner", "alice")
    assert code == 3 and "DuplicateFile" in err
    # unknown file
    code, _, err = run_cli(
        capsys, "--state", state, "download", "0" * 64, "--as", "alice", "--out", str(tmp_path / "x")
    )
    assert code == 4
    # permission denied before grant
    extra = tmp_path / "extra.bin"
    extra.write_bytes(b"another file")
    receipt = json.loads(run_cli(capsys, "--state", state, "upload", str(extra), "--owner", "alice")[1])
    code, _, err = run_cli(
        capsys, "--state", state, "download", receipt["file_hash"], "--as", "bob", "--out", str(tmp_path / "y")
    )
    assert code == 5 and "PermissionDenied" in err
    # non-owner grant
    code, _, err = run_cli(
        capsys, "--state", state, "perms", "grant", receipt["file_hash"], "carol", "--owner", "bob"
    )
    assert code == 6 and "NotOwner" in err
    # unknown node
    code, _, err = run_cli(capsys, "--state", state, "nodes", "fail", "ghost")
    assert code == 11


def test_perms_lifecycle(capsys, state, stored_file, tmp_path):
    receipt = json.loads(run_cli(capsys, "--state", state, "upload", str(stored_file), "--owner", "alice")[1])
    h = receipt["file_hash"]
    code, out, _ = run_cli(capsys, "--state", state, "perms", "grant", h, "bob", "--owner", "alice")
    assert code == 0 and json.loads(out)["block"] == 2
    out_path = tmp_path / "bob.bin"
    assert run_cli(capsys, "--state", state, "download", h, "--as", "bob", "--out", str(out_path))[0] == 0
    code, _, _ = run_cli(capsys, "--state", state, "perms", "revoke", h, "bob", "--owner", "alice")
    assert code == 0
    assert run_cli(capsys, "--state", state, "download", h, "--as", "bob", "--out", str(out_path))[0] == 5


@pytest.mark.parametrize("name, value", [("overhead", math.inf), ("overhead", math.nan), ("segment_size", 2.5), ("segment_size", True)])
def test_a_store_setting_no_upload_can_use_fails_every_command_with_one_line(capsys, state, stored_file, name, value):
    assert run_cli(capsys, "--state", state, "upload", str(stored_file), "--owner", "alice")[0] == 0
    path = f"{state}/config.json"
    with open(path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["store"][name] = value  # json writes the floats as Infinity and NaN, which it reads back
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    for argv in (["upload", str(stored_file), "--owner", "bob"], ["chain", "verify"], ["nodes", "list"]):
        code, out, err = run_cli(capsys, "--state", state, *argv)
        assert (code, out) == (2, ""), (argv, code, err)
        assert err.startswith(f"{name} must be") and err.count("\n") == 1, (argv, err)


def test_chain_show_and_verify(capsys, state, stored_file):
    run_cli(capsys, "--state", state, "upload", str(stored_file), "--owner", "alice")
    code, out, _ = run_cli(capsys, "--state", state, "chain", "show")
    assert code == 0
    info = json.loads(out)
    assert info["height"] == 1 and info["valid"] is True

    code, out, _ = run_cli(capsys, "--state", state, "chain", "verify")
    assert code == 0
    assert out.startswith("chain OK height=1")


def test_chain_verify_detects_tampering(capsys, state, stored_file, tmp_path):
    run_cli(capsys, "--state", state, "upload", str(stored_file), "--owner", "alice")
    chain_path = tmp_path / "state" / "chain.jsonl"
    blob = bytearray(chain_path.read_bytes())
    pos = len(blob) // 2
    expected_height = blob[:pos].count(b"\n")
    blob[pos] ^= 0xFF
    chain_path.write_bytes(bytes(blob))

    code, out, _ = run_cli(capsys, "--state", state, "chain", "verify")
    assert code == EXIT_CHAIN_INVALID
    assert f"height {expected_height}" in out


def test_chain_verify_opens_the_directory_like_every_other_command(capsys, state, stored_file, tmp_path):
    receipt = json.loads(run_cli(capsys, "--state", state, "upload", str(stored_file), "--owner", "alice")[1])
    path = tmp_path / "state" / "beads" / receipt["bead_ids"][0] / "oligos.txt"
    path.write_bytes(b"#K=999 SEG=1 LEN=5\n" + path.read_bytes().split(b"\n", 1)[1])
    for command in (["chain", "show"], ["chain", "verify"]):
        code, out, err = run_cli(capsys, "--state", state, *command)
        assert (code, out) == (2, ""), command
        assert str(path) in err and "#K=999 SEG=1 LEN=5" in err


def test_chain_verify_of_a_missing_directory_reports_height_0_and_creates_nothing(capsys, tmp_path):
    missing = tmp_path / "never-made"
    code, out, _ = run_cli(capsys, "--state", str(missing), "chain", "verify")
    assert code == EXIT_CHAIN_INVALID and out == "chain INVALID at height 0\n"
    assert not missing.exists()


def test_nodes_list_and_fault_injection(capsys, state, stored_file):
    receipt = json.loads(run_cli(capsys, "--state", state, "upload", str(stored_file), "--owner", "alice")[1])
    victim = receipt["placement"][0][1]
    code, out, _ = run_cli(capsys, "--state", state, "nodes", "fail", victim)
    assert code == 0 and json.loads(out) == {"node_id": victim, "online": False}
    # fault state persists in config.json, so a fresh invocation still sees it
    code, out, _ = run_cli(capsys, "--state", state, "nodes", "list")
    info = json.loads(out)
    assert any(n["node_id"] == victim and not n["online"] for n in info["nodes"])
    flagged = info["audit"]["under_replicated"]
    assert flagged and all(e["live"] == 2 for e in flagged)
    code, out, _ = run_cli(capsys, "--state", state, "nodes", "restore", victim)
    assert code == 0 and json.loads(out)["online"] is True
    info = json.loads(run_cli(capsys, "--state", state, "nodes", "list")[1])
    assert info["audit"]["under_replicated"] == []


def test_bench_roundtrip_line(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "roundtrip", "--size", "4096", "--error-rate", "0.001",
        "--coverage", "5", "--replication", "3", "--seed", "11",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert result["ok"] is True
    assert result["size"] == 4096
    assert result["droplets"] > 0
    assert result["elapsed_s"] >= 0


def test_bench_reports_the_droplets_actually_stored(capsys):
    from dnavault.contract import StorageContract, StoreParams
    from dnavault.ledger import Validator
    from dnavault.network import Cluster

    # 240 B is K=8: the nominal ceil(1.7 * K) = 14 droplets do not peel, so the upload stores a topped-up set
    code, out, _ = run_cli(capsys, "bench", "roundtrip", "--size", "240", "--error-rate", "0", "--seed", "11")
    assert code == 0
    cluster = Cluster([f"n{i}" for i in range(6)])
    receipt = StorageContract(cluster, [Validator("v", 1)]).upload_file("a", random.Random(11).randbytes(240))
    stored = sum(len(cluster.retrieve_bead(b, receipt.placement).codes) for b in receipt.bead_ids)
    assert stored != 14
    assert json.loads(out)["droplets"] == stored


def test_url_mode_matches_local_semantics(tmp_path, capsys, stored_file):
    config = ServiceConfig(state_dir=tmp_path / "server-state", port=0)
    config.save()
    server = make_server(config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        code, out, _ = run_cli(capsys, "--url", url, "upload", str(stored_file), "--owner", "alice")
        assert code == 0
        receipt = json.loads(out)
        out_path = tmp_path / "via-http.bin"
        code, _, _ = run_cli(
            capsys, "--url", url, "download", receipt["file_hash"], "--as", "alice", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_bytes() == stored_file.read_bytes()
        # same duplicate-upload exit code as local mode
        assert run_cli(capsys, "--url", url, "upload", str(stored_file), "--owner", "alice")[0] == 3
        code, out, _ = run_cli(capsys, "--url", url, "chain", "show")
        assert code == 0 and json.loads(out)["height"] == 1
        code, out, _ = run_cli(capsys, "--url", url, "chain", "verify")
        assert code == 0 and out.startswith("chain OK")
        assert run_cli(capsys, "--url", url, "nodes", "fail", "ghost")[0] == 11
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_connection_refused_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "--url", "http://127.0.0.1:9", "chain", "show")
    assert code == 13


def test_state_dir_env_variable(capsys, stored_file, tmp_path, monkeypatch):
    monkeypatch.setenv("ETRUS_STATE_DIR", str(tmp_path / "env-state"))
    code, out, _ = run_cli(capsys, "upload", str(stored_file), "--owner", "alice")
    assert code == 0
    assert (tmp_path / "env-state" / "chain.jsonl").exists()


def test_console_script_subprocess(tmp_path, stored_file):
    state = tmp_path / "proc-state"
    proc = subprocess.run(
        [sys.executable, "-m", "dnavault.cli", "--state", str(state), "upload", str(stored_file), "--owner", "alice"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    receipt = json.loads(proc.stdout)
    proc = subprocess.run(
        [sys.executable, "-m", "dnavault.cli", "--state", str(state), "chain", "verify"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("chain OK height=1")
    # tamper on disk, expect non-zero exit and the height in the output
    chain_path = state / "chain.jsonl"
    blob = bytearray(chain_path.read_bytes())
    blob[10] ^= 0x01
    chain_path.write_bytes(bytes(blob))
    proc = subprocess.run(
        [sys.executable, "-m", "dnavault.cli", "--state", str(state), "chain", "verify"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_CHAIN_INVALID
    assert "INVALID at height 0" in proc.stdout