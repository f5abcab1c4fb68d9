"""dnavault: desk-scale simulation of file storage in DNA beads.

Files are fountain-coded into synthetic DNA oligos, "synthesized" into
glass beads scattered over simulated storage nodes, indexed by a
stake-validated append-only ledger, and retrieved through a contract
workflow exposed as a library, a REST service and a CLI.

The subsystems compose bottom-up and each is usable on its own:

    dna_codec   base <-> bit mapping, DNA-number factoring, keystream cipher
    fountain    segments, droplets, peeling decoder, oligo framing + screen
    synthesis   noisy synthesis/sequencing channel, read consensus, bead files
    ledger      hash-linked blocks, stake-weighted proposers, verification
    network     replicated bead placement, fault injection, redundancy audit
    contract    the upload/download workflow tying the layers together
    service     REST facade (config + HTTP)
    cli         command-line client for all of the above
"""

from . import errors
from .contract import StorageContract, StoreParams, UploadReceipt
from .ledger import Block, CodecParams, FileRecord, Validator
from .network import Cluster
from .synthesis import Bead, ErrorModel, ReadSet

__version__ = "0.1.0"

__all__ = [
    "Bead",
    "Block",
    "Cluster",
    "CodecParams",
    "ErrorModel",
    "FileRecord",
    "ReadSet",
    "StorageContract",
    "StoreParams",
    "UploadReceipt",
    "Validator",
    "errors",
    "__version__",
]
