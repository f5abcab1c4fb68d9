"""Golden bytes at 1 MiB: the bulk path must store and read back exactly these bytes.

One random 1 MiB upload under substitution 0.001 and coverage 5 runs every
batch path at full size: droplet planning and screening, the peel check,
the synthesis channel over ~14k oligos a bead, sequencing, consensus and
decode. The hashes pin every bead's stored oligos, the receipt, the chain
tip and the downloaded bytes.
"""

import hashlib
import json
import random

from dnavault.contract import StorageContract, StoreParams
from dnavault.ledger import Validator
from dnavault.network import Cluster
from dnavault.synthesis import ErrorModel

PARAMS = StoreParams(error_model=ErrorModel(0.001, rng_seed=7), coverage=5)
DATA = random.Random(1).randbytes(1 << 20)

RECEIPT = "55b3940aa860c494b4683b814d1f850fbcc7ab38877cfe31ce4e2ee81050d4e1"
BEADS = [
    "f6aaad5c9d7bccbd04ecb4c893f7cca5002416968c954e57dc8daeba980351fc",
    "a7a0df8049b49d3312036eb3170bb4d0b8c2651a6911ca90beaa353b7108e6e7",
    "4e6fea10f010894f1a564a0b7e261ac9b5010948b1778035a90440b940e05ec5",
    "5f16281c95813a2099f15f42ae6ee4c37665799f8e368209e7e6415d0307aa61",
]
TIP = "993ab4ff2b65fa9828a6e637da2a06fd07950e0d633d5ae6c0236e787a445b34"
DOWNLOAD = "08b2a8da54e3e185f025ac53633deae5a583c8880a72a21e169a1da022baa003"


def _sha(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def test_golden_bytes_of_a_1mib_roundtrip():
    cluster = Cluster([f"node-{i:02d}" for i in range(10)])
    contract = StorageContract(
        cluster, [Validator("v-a", 1), Validator("v-b", 3)], defaults=PARAMS, clock=lambda: 1_700_000_000
    )
    receipt = contract.upload_file("alice", DATA)
    beads = [
        _sha("\n".join(cluster.retrieve_bead(b, [(b, n) for bb, n in receipt.placement if bb == b]).oligos).encode())
        for b in receipt.bead_ids
    ]
    data = contract.download_file("alice", receipt.file_hash)
    seen = (_sha(json.dumps(receipt.to_dict(), sort_keys=True).encode()), beads, contract.chain[-1].block_hash)
    assert seen == (RECEIPT, BEADS, TIP)
    assert _sha(data) == DOWNLOAD == _sha(DATA)
