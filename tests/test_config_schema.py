"""The on-disk config schema: default bytes, round trips, partial and unknown keys."""

import hashlib
import json

from hypothesis import given, strategies as st

from dnavault.config import ServiceConfig, default_topology, default_validators
from dnavault.contract import StoreParams
from dnavault.synthesis import ErrorModel

DEFAULT_CONFIG_SHA256 = "f23f5d3865304483897d1b6de79c08562fd7403a7f7693d4d9306b81df4f9dd5"

rates = st.floats(min_value=0.0, max_value=1.0)
store_params = st.builds(
    StoreParams,
    segment_size=st.integers(1, 4096),
    overhead=st.floats(min_value=1.0, max_value=100.0),
    beads_per_file=st.integers(1, 64),
    replication=st.integers(1, 16),
    error_model=st.builds(ErrorModel, rates, rates, st.integers(0, 2**64 - 1)),
    coverage=st.integers(1, 100),
)


def test_a_new_state_directory_gets_the_default_config_bytes(tmp_path):
    ServiceConfig.load_or_create(tmp_path)
    assert hashlib.sha256((tmp_path / "config.json").read_bytes()).hexdigest() == DEFAULT_CONFIG_SHA256


@given(store_params)
def test_store_params_round_trip_through_json_without_key(params):
    raw = json.loads(json.dumps(params.to_dict()))
    assert StoreParams.from_dict(raw) == params


def test_missing_store_keys_take_the_defaults_and_unknown_keys_are_ignored():
    assert StoreParams.from_dict({}) == StoreParams()
    raw = {"coverage": 9, "error_model": {"rng_seed": 4, "bogus": 1}, "bogus": 2, "key": "ACGT"}
    assert StoreParams.from_dict(raw) == StoreParams(coverage=9, error_model=ErrorModel(rng_seed=4))


def test_a_partial_config_loads_with_defaults_and_is_not_rewritten(tmp_path):
    path = tmp_path / "config.json"
    text = json.dumps({"port": 9000, "store": {"replication": 2}, "bogus": True})
    path.write_text(text, encoding="utf-8")
    config = ServiceConfig.load_or_create(tmp_path, host="0.0.0.0", port=None)
    assert (config.host, config.port) == ("0.0.0.0", 9000)
    assert config.store == StoreParams(replication=2)
    assert (config.topology, config.validators) == (default_topology(), default_validators())
    assert path.read_text(encoding="utf-8") == text


def test_overrides_on_a_new_state_directory_are_saved(tmp_path):
    ServiceConfig.load_or_create(tmp_path, port=1234)
    assert json.loads((tmp_path / "config.json").read_text(encoding="utf-8"))["port"] == 1234
    assert ServiceConfig.load_or_create(tmp_path).port == 1234
