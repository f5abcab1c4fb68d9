"""Tests of the benchmark's own helpers: the percentile rule and the oracle."""

import statistics
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracle  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from dnavault.config import ServiceConfig  # noqa: E402
from dnavault.service import StorageService  # noqa: E402

LEDGER_HEIGHT = 30


def test_percentile_interpolates_between_order_statistics():
    assert stats.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert stats.percentile([1.0, 2.0], 50) == 1.5
    assert stats.percentile(list(range(1, 11)), 90) == pytest.approx(9.1)
    assert stats.percentile([5.0], 90) == 5.0
    assert stats.percentile([4.0, 8.0], 0) == 4.0 and stats.percentile([4.0, 8.0], 100) == 8.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    median, q1, q3, share = stats.spread(values)
    expected_q1, _, expected_q3 = statistics.quantiles(values, n=4)
    assert (median, q1, q3) == (14.5, expected_q1, expected_q3)
    assert share == pytest.approx((expected_q3 - expected_q1) / 14.5)


@pytest.fixture
def state(tmp_path):
    """A benchmark-written ledger, then one upload and one grant through the program."""
    config = ServiceConfig(tmp_path, store=workloads.ZERO_NOISE)
    config.save()
    workloads.write_deep_ledger(tmp_path, config, seed=1, height=LEDGER_HEIGHT)
    service = StorageService(config)
    data = bytes(range(256)) * 4
    file_hash = service.upload("owner-a", data)["file_hash"]
    service.change_permission("owner-a", file_hash, "grant", "reader-1")
    return tmp_path, config, service, data, file_hash


def test_oracle_accepts_what_the_program_stored(state):
    path, config, service, data, file_hash = state
    oracle.check_receipt(data, file_hash)
    oracle.check_download(data, service.download("reader-1", file_hash))
    records = oracle.check_chain(path, config.validators, LEDGER_HEIGHT + 2, service.chain_info())
    bases = oracle.check_beads(path, records, [file_hash], replication=3, overhead=1.7, zero_noise=True)
    assert bases > 0 and bases % 160 == 0


def test_oracle_catches_a_wrong_height(state):
    path, config, service, _, _ = state
    with pytest.raises(oracle.OracleError, match="should reach"):
        oracle.check_chain(path, config.validators, LEDGER_HEIGHT + 3, service.chain_info())


@pytest.mark.parametrize("where", [0.05, 0.3, 0.5, 0.77, 0.999])
def test_oracle_catches_one_flipped_byte_in_the_chain(state, where):
    path, config, service, _, _ = state
    chain = path / "chain.jsonl"
    raw = bytearray(chain.read_bytes())
    raw[int(where * (len(raw) - 1))] ^= 0x01
    chain.write_bytes(bytes(raw))
    with pytest.raises(oracle.OracleError, match="chain.jsonl"):
        oracle.check_chain(path, config.validators, LEDGER_HEIGHT + 2, service.chain_info())


def test_oracle_catches_one_wrong_byte_in_a_download(state):
    _, _, service, data, file_hash = state
    got = bytearray(service.download("owner-a", file_hash))
    got[700] ^= 0xFF
    with pytest.raises(oracle.OracleError, match="at byte 700"):
        oracle.check_download(data, bytes(got))


def test_oracle_catches_a_damaged_bead(state):
    path, config, service, _, file_hash = state
    records = oracle.check_chain(path, config.validators, LEDGER_HEIGHT + 2, service.chain_info())
    bead_id = records[file_hash]["bead_locations"][0][0]
    oligos = path / "beads" / bead_id / "oligos.txt"
    lines = oligos.read_text().split("\n")
    lines[1] = ("C" if lines[1][0] != "C" else "G") + lines[1][1:]
    oligos.write_text("\n".join(lines))
    with pytest.raises(oracle.OracleError, match="CRC-32"):
        oracle.check_beads(path, records, [file_hash], replication=3, overhead=1.7, zero_noise=True)
