"""The storage workflow: upload a file into DNA beads, download it back.

Upload order (one atomic ledger transaction at the end):

1. hash the plaintext (SHA-256 -- the content address and later integrity
   check), reject duplicates;
2. optionally encrypt with the caller's key sequence;
3. fragment into segments, fountain-encode ``ceil(overhead * K)`` droplets
   whose oligos pass the screen, as rows of one base-code matrix;
4. deal the rows round-robin into up to ``beads_per_file`` beads and run
   each through the synthesis error channel;
5. place every bead on ``replication`` nodes;
6. append one record-create transaction carrying hash, owner, timestamp,
   the full placement map and the codec parameters.

Download reverses it: permission check against the ledger's current
record, retrieve each bead from any online replica and sequence it at the
configured coverage, collapse all beads' reads in one consensus call to
CRC-valid frames, take each seed once (first seen), peel, optionally
decrypt, and refuse to return bytes whose hash does not match the record.
Oligos stay base-code matrices and frames stay byte rows throughout.

The engine holds a ``Ledger``: uploads, downloads and permission changes
read its current records and append one block checked against them, so no
operation replays the chain. Given a state directory, the engine opens it
(the chain, and the header of each persisted bead; a bead's oligos are read
at its first download) and persists the chain (append-only ``chain.jsonl``)
and bead contents as they are created, so any later engine on that
directory rebuilds the exact same state.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import ledger
from .dna_codec import keystream_encrypt
from .errors import (
    DuplicateFile,
    EmptyInput,
    IntegrityMismatch,
    NotOwner,
    PermissionDenied,
    ScreenStarvation,
    UnknownFile,
)
from .fountain import (
    DEFAULT_SCREEN,
    DropletBatch,
    decode,
    encode_droplets,
    fragment,
    recoverable_segments,
    split_frames,
)
from .ledger import Block, CodecParams, FileRecord, Ledger, Validator, save_chain
from .network import Cluster
from .rng import derive_seed
from .synthesis import ErrorModel, consensus_reads, load_bead, save_bead, sequence_bead, synthesize


def field_values(obj, skip: tuple[str, ...] = ()) -> dict:
    """Field name -> value for each field of dataclass ``obj`` not named in ``skip``."""
    return {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in skip}


def known_fields(cls, raw: dict, skip: tuple[str, ...] = ()) -> dict:
    """The entries of ``raw`` that name a field of dataclass ``cls`` not in ``skip``; others are ignored."""
    return {f.name: raw[f.name] for f in fields(cls) if f.name in raw and f.name not in skip}


# The ledger's file in a state directory.
CHAIN_FILE = "chain.jsonl"


@dataclass(frozen=True)
class StoreParams:
    """Every setting of the storage pipeline, with desk-scale defaults; the key belongs to each call."""

    segment_size: int = 32
    overhead: float = 1.7
    beads_per_file: int = 4
    replication: int = 3
    error_model: ErrorModel = field(default_factory=ErrorModel)
    coverage: int = 5

    def __post_init__(self):
        for name in ("segment_size", "beads_per_file", "replication", "coverage"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name} must be a positive integer, not {value!r}")
        overhead = self.overhead
        if isinstance(overhead, bool) or not isinstance(overhead, (int, float)) or not 1 <= overhead < math.inf:
            raise ValueError(f"overhead must be a finite number of at least 1, not {overhead!r}")

    def to_dict(self) -> dict:
        """Every field, the error model as a dict of its own."""
        return {**field_values(self), "error_model": field_values(self.error_model)}

    @classmethod
    def from_dict(cls, raw: dict) -> StoreParams:
        """The inverse of :meth:`to_dict`: missing keys take the defaults, unknown keys are ignored."""
        known = known_fields(cls, raw)
        if "error_model" in known:
            known["error_model"] = ErrorModel(**known_fields(ErrorModel, known["error_model"]))
        return cls(**known)


@dataclass(frozen=True)
class UploadReceipt:
    file_hash: str
    block_index: int
    bead_ids: list[str]
    placement: list[tuple[str, str]]

    def to_dict(self) -> dict:
        return {
            "file_hash": self.file_hash,
            "block_index": self.block_index,
            "bead_ids": list(self.bead_ids),
            "placement": [[b, n] for b, n in self.placement],
        }


class StorageContract:
    """Single-writer workflow engine over the ledger, cluster and codecs."""

    def __init__(
        self,
        cluster: Cluster,
        validators: list[Validator],
        defaults: StoreParams | None = None,
        state_dir: Path | str | None = None,
        clock: Callable[[], float] = time.time,
    ):
        """Open ``state_dir`` if given: load its ``chain.jsonl`` and install its beads, or write genesis."""
        self.cluster = cluster
        self.validators = validators
        self.defaults = defaults or StoreParams()
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.clock = clock
        chain_path = self.state_dir / CHAIN_FILE if self.state_dir is not None else None
        if chain_path is not None and chain_path.exists():
            self.ledger = ledger.read_ledger(chain_path)
            self._rehydrate_beads()
        else:
            self.ledger = Ledger()
            if chain_path is not None:
                self.state_dir.mkdir(parents=True, exist_ok=True)
                save_chain(chain_path, self.chain)

    def _rehydrate_beads(self) -> None:
        """Install persisted beads per the ledger's placement map, each header checked against its record."""
        beads_dir = self.state_dir / "beads"
        present = set(os.listdir(beads_dir)) if beads_dir.is_dir() else set()
        loaded = {}
        for record in self.ledger.records.values():
            for bead_id, node_id in record.bead_locations:
                # skip a bead never written, and a replica whose node left the topology since upload
                if bead_id in present and node_id in self.cluster.nodes:
                    if bead_id not in loaded:
                        loaded[bead_id] = load_bead(beads_dir, bead_id, record.codec_params)
                    self.cluster.install_bead(node_id, loaded[bead_id])

    @property
    def chain(self) -> list[Block]:
        """The live block list of the ledger."""
        return self.ledger.blocks

    # --- persistence helpers ---

    def _persist_block(self, block: Block) -> None:
        if self.state_dir is not None:
            ledger.append_chain_file(self.state_dir / CHAIN_FILE, block)

    # --- workflow operations ---

    _ENCODE_SEEDS = 4
    _ENCODE_BOOSTS = (1.0, 1.15, 1.3)

    def _encode_decodable(self, segments, count, file_hash) -> DropletBatch:
        """Encode droplets whose index sets provably peel under zero noise.

        Peeling can stall for an unlucky seed at small K even above the
        nominal overhead, and that is only fixable before synthesis. The
        code is rateless, so a stalled set is first topped up with extra
        droplets, then re-derived from the next seed. A screen that starves
        (degenerate content such as one all-zero-padded segment) falls back
        to unscreened encoding.
        """
        k = len(segments)
        best = None
        best_recovered = -1
        for attempt in range(self._ENCODE_SEEDS):
            seed = derive_seed("droplets", file_hash, attempt)
            for boost in self._ENCODE_BOOSTS:
                boosted = math.ceil(count * boost)
                try:
                    batch = encode_droplets(segments, boosted, seed, screen=DEFAULT_SCREEN)
                except ScreenStarvation:
                    batch = encode_droplets(segments, boosted, seed, screen=None)
                recovered = recoverable_segments(batch.offsets, batch.indices, k)
                if recovered == k:
                    return batch
                if recovered > best_recovered:
                    best, best_recovered = batch, recovered
        return best

    def upload_file(self, owner: str, data: bytes, key: str | None = None) -> UploadReceipt:
        """Run the whole encode/synthesize/place/record pipeline on ``data``, encrypted first if ``key`` is given."""
        if not data:
            raise EmptyInput("cannot upload an empty file")
        if not owner:
            raise ValueError("owner identity must be non-empty")
        params = self.defaults

        file_hash = hashlib.sha256(data).hexdigest()
        if file_hash in self.ledger.records:
            raise DuplicateFile(f"file {file_hash} is already recorded")

        payload = keystream_encrypt(data, key) if key else data
        segments, original_length = fragment(payload, params.segment_size)
        k = len(segments)
        count = max(k, math.ceil(k * params.overhead))
        codes = self._encode_decodable(segments, count, file_hash).codes

        # Round-robin assignment; tiny files get fewer beads rather than empty ones.
        n_beads = min(params.beads_per_file, len(codes))
        beads = [synthesize(codes[i::n_beads], params.error_model, f"{file_hash[:16]}.{i}") for i in range(n_beads)]

        placement = self.cluster.place_beads(beads, params.replication, derive_seed("placement", file_hash))
        codec = CodecParams(k, params.segment_size, original_length)
        if self.state_dir is not None:
            for bead in beads:
                save_bead(self.state_dir / "beads", bead, codec)

        record = FileRecord(
            file_hash=file_hash,
            owner=owner,
            timestamp=int(self.clock()),
            bead_locations=placement,
            permissions=set(),
            codec_params=codec,
        )
        block = self.ledger.append([ledger.record_create(record)], self.validators, int(self.clock()))
        self._persist_block(block)
        return UploadReceipt(file_hash, block.index, [b.bead_id for b in beads], placement)

    def download_file(self, requester: str, file_hash: str, key: str | None = None) -> bytes:
        """Reconstruct a stored file, enforcing permissions and integrity."""
        record = self.find_record(file_hash)
        if not record.is_permitted(requester):
            raise PermissionDenied(f"{requester} may not read {file_hash}")
        if record.codec_params is None:
            raise UnknownFile(f"record for {file_hash} carries no codec parameters")
        cp = record.codec_params

        # Fetched first, sequenced lazily: one bead's reads alive at a time. A bead opened from disk first reads its
        # oligos here, where the beads that lost every molecule are dropped, and not inside the consensus call.
        places, params = record.bead_locations, self.defaults
        beads = [self.cluster.retrieve_bead(bead_id, places) for bead_id in dict.fromkeys(b for b, _ in places)]
        beads = [bead for bead in beads if len(bead.codes)]
        read_sets = (sequence_bead(bead, params.coverage, params.error_model) for bead in beads)
        frames = consensus_reads(read_sets, cp.segment_size)  # one pass over every bead's reads
        seeds, payloads, _ = split_frames(frames)
        first = np.sort(np.unique(seeds, return_index=True)[1])  # a seed read on several beads counts once

        data = decode(seeds[first], payloads[first], cp.k, cp.original_length)  # DecodeFailed when peeling stalls
        if key:
            data = keystream_encrypt(data, key)
        if hashlib.sha256(data).hexdigest() != file_hash:
            raise IntegrityMismatch(f"decoded bytes do not hash to {file_hash}")
        return data

    def _permission_change(self, owner: str, file_hash: str, grantee: str, make_tx) -> int:
        record = self.find_record(file_hash)
        if record.owner != owner:
            raise NotOwner(f"{owner} does not own {file_hash}")
        block = self.ledger.append([make_tx(file_hash, owner, grantee)], self.validators, int(self.clock()))
        self._persist_block(block)
        return block.index

    def grant_permission(self, owner: str, file_hash: str, grantee: str) -> int:
        """Append a grant transaction; returns the recording block height."""
        return self._permission_change(owner, file_hash, grantee, ledger.permission_grant)

    def revoke_permission(self, owner: str, file_hash: str, grantee: str) -> int:
        """Append a revoke transaction; returns the recording block height."""
        return self._permission_change(owner, file_hash, grantee, ledger.permission_revoke)

    def find_record(self, file_hash: str) -> FileRecord:
        """A copy of the current record for ``file_hash``; raises UnknownFile."""
        return self.ledger.record(file_hash)
