"""Exception types shared across the storage stack.

Every failure the library reports deliberately is a ``StorageError``
subclass, and each class carries its own outcome at the edges: the REST
service answers with ``http_status`` and the CLI exits with ``exit_code``.
This module is the only table of statuses and exit codes; a class that sets
neither is a generic failure (500, exit 1). Classes that are also
ValueErrors name bad input and answer 400.
"""

from __future__ import annotations


class StorageError(Exception):
    """Base class for all deliberate failures raised by this package."""

    http_status = 500
    exit_code = 1


# --- codec ---------------------------------------------------------------

class LengthError(StorageError, ValueError):
    """A sequence or frame has a length the operation cannot accept."""

    http_status = 400


class EmptySequence(StorageError, ValueError):
    """An operation that needs at least one base got an empty sequence."""

    http_status = 400


class InvalidInput(StorageError, ValueError):
    """A numeric precondition (e.g. n >= 4) was violated."""

    http_status = 400


class NotFactorable(StorageError):
    """The rho walk exhausted its retries without a non-trivial factor."""

    def __init__(self, n: int, retries: int):
        super().__init__(f"no non-trivial factor of {n} found after {retries} retries")
        self.n = n
        self.retries = retries


class EmptyKey(StorageError, ValueError):
    """The keystream cipher requires a non-empty key sequence."""

    http_status = 400


# --- fountain coding -------------------------------------------------------

class EmptyInput(StorageError, ValueError):
    """Cannot fragment or upload zero bytes."""

    http_status, exit_code = 400, 2


class DecodeFailed(StorageError):
    """Peeling stalled before every segment was recovered, so the file cannot be reconstructed."""

    http_status, exit_code = 500, 9

    def __init__(self, recovered: int, needed: int):
        super().__init__(f"decode failed: recovered {recovered} of {needed} segments")
        self.recovered = recovered
        self.needed = needed


class ChecksumMismatch(StorageError):
    """An oligo's embedded CRC-32 does not match its content."""


class ScreenStarvation(StorageError):
    """The oligo screen rejected candidates faster than the encoder's budget.

    Happens for degenerate content (e.g. a single mostly-zero segment whose
    every rendering carries a long homopolymer run)."""


# --- synthesis / sequencing -------------------------------------------------

class EmptyBead(StorageError):
    """Sequencing was asked to read a bead that holds no oligos."""


# --- ledger -----------------------------------------------------------------

class NoStake(StorageError):
    """Validator selection requires a positive total stake."""


class InvalidTransaction(StorageError):
    """A transaction failed contextual validation during block assembly."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"transaction {index} invalid: {reason}")
        self.index = index
        self.reason = reason


class CorruptChain(StorageError, ValueError):
    """A chain fails verification; ``height`` is the first failing block.

    Any command that opens a state directory whose ``chain.jsonl`` is torn or
    tampered with fails with this error."""

    http_status, exit_code = 400, 12

    def __init__(self, height: int, reason: str):
        super().__init__(f"chain fails verification at height {height}: {reason}")
        self.height = height


class UnknownFile(StorageError):
    """No ledger record exists for the requested file hash."""

    http_status, exit_code = 404, 4


# --- network -----------------------------------------------------------------

class InsufficientNodes(StorageError):
    """Fewer online nodes than the requested replication factor."""

    http_status, exit_code = 503, 7


class BeadUnavailable(StorageError):
    """Every node listed as hosting the bead is offline or lost it."""

    http_status, exit_code = 503, 8


class UnknownNode(StorageError):
    """The named node is not part of the cluster."""

    http_status, exit_code = 404, 11


# --- contract workflow --------------------------------------------------------

class DuplicateFile(StorageError):
    """A record for this content hash already exists on the ledger."""

    http_status, exit_code = 409, 3


class PermissionDenied(StorageError):
    """Requester is neither the owner nor on the permission list."""

    http_status, exit_code = 403, 5


class NotOwner(StorageError):
    """Permission changes may only be issued by the record owner."""

    http_status, exit_code = 403, 6


class IntegrityMismatch(StorageError):
    """Decoded bytes hash to something other than the ledger record."""

    http_status, exit_code = 500, 10


# --- service edge ---------------------------------------------------------------

class BadRequest(StorageError, ValueError):
    """The request itself is malformed: an unreadable body or length."""

    http_status, exit_code = 400, 2


class NotFound(StorageError):
    """No route or block matches the request."""

    http_status, exit_code = 404, 4
