"""Service configuration and state-directory layout.

A state directory holds everything a service instance needs to come back
after a restart::

    <state>/config.json   host/port, store defaults, topology, validators
    <state>/chain.jsonl   the persisted ledger, one canonical block per line
    <state>/beads/        bead content: beads/<id>/oligos.txt, one per bead

This module reads and writes ``config.json``. ``chain.jsonl`` and ``beads/``
belong to ``StorageContract``, which opens them whenever it is given the
directory: from the library, the service and the CLI alike.

The directory is chosen by, in priority order: an explicit CLI/API value,
the ETRUS_STATE_DIR environment variable, then ``./state``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .contract import StoreParams, field_values, known_fields
from .ledger import Validator

STATE_DIR_ENV = "ETRUS_STATE_DIR"
DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8650


def default_topology(node_count: int = 10) -> list[dict]:
    return [{"node_id": f"node-{i:02d}", "online": True} for i in range(node_count)]


def default_validators() -> list[dict]:
    return [
        {"id": "validator-a", "stake": 5},
        {"id": "validator-b", "stake": 3},
        {"id": "validator-c", "stake": 2},
    ]


def resolve_state_dir(explicit: str | os.PathLike | None = None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(STATE_DIR_ENV)
    if env:
        return Path(env)
    return Path("state")


@dataclass
class ServiceConfig:
    state_dir: Path
    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT
    store: StoreParams = field(default_factory=StoreParams)
    topology: list[dict] = field(default_factory=default_topology)
    validators: list[dict] = field(default_factory=default_validators)

    def validator_objects(self) -> list[Validator]:
        return [Validator(v["id"], v["stake"]) for v in self.validators]

    def to_dict(self) -> dict:
        """Every field but ``state_dir``, which is where the dict is written."""
        return {**field_values(self, ("state_dir",)), "store": self.store.to_dict()}

    def save(self) -> Path:
        path = self.state_dir / "config.json"
        self.state_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path

    @classmethod
    def load_or_create(cls, state_dir: Path | str, **overrides) -> ServiceConfig:
        """Read ``config.json`` if present, else write one with defaults.

        ``overrides`` (host, port, store, topology, validators) replace the
        loaded values but are not persisted unless the file is new. Keys the
        file lacks take the dataclass defaults; keys it has beyond the fields
        are ignored.
        """
        state_dir = Path(state_dir)
        path = state_dir / "config.json"
        new = not path.exists()
        known = {} if new else known_fields(cls, json.loads(path.read_text(encoding="utf-8")), ("state_dir",))
        if "store" in known:
            known["store"] = StoreParams.from_dict(known["store"])
        config = cls(state_dir=state_dir, **known)
        for name, value in overrides.items():
            if value is not None:
                setattr(config, name, value)
        if new:
            config.save()
        return config
