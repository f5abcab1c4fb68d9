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
    "a90b97f46974305e13e7d259badbde1cc852c1bdbd8ebc1ebeb3cd169511e155",
    "c50b55b5005a0faa324a5aaf98f6f631cc44de2fc703ebc8c9ba1336b652b25b",
    "31aa8590aa67296cb09c1feae37a11b39152845bd75fd641ea1175ab499816a2",
    "b5e98668a2d47c2704dfa241554b44e7400533b50079afd3b5bfd61bc86f8f21",
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
