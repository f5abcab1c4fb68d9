"""Simulated storage-node cluster with replicated bead placement.

Placement uses rendezvous (highest-random-weight) hashing: every bead
ranks the online nodes by ``SHA-256(bead_id | node_id | placement_seed)``
and takes the top ``r``. The ranking is a pure function of the ids and the
seed, so placement is reproducible, balanced, and stable under membership
changes. Bead content is immutable once placed; offline nodes reject
reads; there is no automatic re-replication -- an audit reports beads that
have fallen below their replication factor.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .errors import BeadUnavailable, InsufficientNodes, UnknownNode
from .ledger import FileRecord
from .synthesis import Bead


@dataclass
class NodeState:
    node_id: str
    online: bool = True
    beads: dict[str, Bead] = field(default_factory=dict)


@dataclass(frozen=True)
class AuditEntry:
    file_hash: str
    bead_id: str
    replicas_expected: int
    replicas_live: int

    @property
    def under_replicated(self) -> bool:
        return self.replicas_live < self.replicas_expected


@dataclass
class AuditReport:
    entries: list[AuditEntry]

    @property
    def flagged(self) -> list[AuditEntry]:
        return [e for e in self.entries if e.under_replicated]


def _rendezvous_score(bead_id: str, node_id: str, placement_seed: int) -> bytes:
    return hashlib.sha256(f"{bead_id}|{node_id}|{placement_seed}".encode("utf-8")).digest()


class Cluster:
    """A set of named storage nodes; mutations are serialized by the caller."""

    def __init__(self, node_ids: list[str] | None = None):
        self.nodes: dict[str, NodeState] = {}
        for node_id in node_ids or []:
            self.register_node(node_id)

    @classmethod
    def from_topology(cls, topology: list[dict]) -> Cluster:
        """Build from config entries ``{"node_id": ..., "online": ...}``."""
        cluster = cls()
        for entry in topology:
            cluster.register_node(entry["node_id"], entry.get("online", True))
        return cluster

    def register_node(self, node_id: str, online: bool = True) -> NodeState:
        if node_id in self.nodes:
            raise ValueError(f"node {node_id} already registered")
        state = NodeState(node_id, online)
        self.nodes[node_id] = state
        return state

    def _require(self, node_id: str) -> NodeState:
        node = self.nodes.get(node_id)
        if node is None:
            raise UnknownNode(f"no such node: {node_id}")
        return node

    def online_nodes(self) -> list[NodeState]:
        return [n for n in self.nodes.values() if n.online]

    def place_beads(self, beads: list[Bead], replication: int, placement_seed: int) -> list[tuple[str, str]]:
        """Store every bead on its top-``replication`` rendezvous nodes.

        Returns the placement map [(bead_id, node_id), ...] in rank order
        per bead, ready for ledger recording.
        """
        if replication < 1:
            raise ValueError("replication factor must be at least 1")
        online = self.online_nodes()
        if len(online) < replication:
            raise InsufficientNodes(f"need {replication} online nodes, have {len(online)}")
        placement: list[tuple[str, str]] = []
        for bead in beads:
            ranked = sorted(
                online,
                key=lambda n: (_rendezvous_score(bead.bead_id, n.node_id, placement_seed), n.node_id),
                reverse=True,
            )
            for node in ranked[:replication]:
                node.beads[bead.bead_id] = bead
                placement.append((bead.bead_id, node.node_id))
        return placement

    def install_bead(self, node_id: str, bead: Bead) -> None:
        """Directly place existing bead content on a node (state reload)."""
        self._require(node_id).beads[bead.bead_id] = bead

    def retrieve_bead(self, bead_id: str, locations: list[tuple[str, str]]) -> Bead:
        """Fetch from the first listed online replica."""
        for listed_bead, node_id in locations:
            if listed_bead != bead_id:
                continue
            node = self.nodes.get(node_id)
            if node is not None and node.online and bead_id in node.beads:
                return node.beads[bead_id]
        raise BeadUnavailable(f"no online replica holds bead {bead_id}")

    def fail_node(self, node_id: str) -> NodeState:
        node = self._require(node_id)
        node.online = False
        return node

    def restore_node(self, node_id: str) -> NodeState:
        node = self._require(node_id)
        node.online = True
        return node

    def audit_redundancy(self, records: dict[str, FileRecord]) -> AuditReport:
        """Live replica counts for every bead placement in the ledger's folded ``records``."""
        entries = []
        for record in records.values():
            per_bead: dict[str, list[str]] = {}
            for bead_id, node_id in record.bead_locations:
                per_bead.setdefault(bead_id, []).append(node_id)
            for bead_id, node_ids in per_bead.items():
                live = sum(
                    1
                    for node_id in node_ids
                    if (node := self.nodes.get(node_id)) is not None
                    and node.online
                    and bead_id in node.beads
                )
                entries.append(AuditEntry(record.file_hash, bead_id, len(node_ids), live))
        return AuditReport(entries)
