"""Golden bytes: a fixed set of uploads must store exactly these oligos.

The hashes pin everything an upload writes (every bead's oligos after the
synthesis channel, the receipt, the chain tip) and what a download then
reads back, so any change to droplet planning, the oligo screen, the peel
check, the encode ladder, consensus or decode that alters a single byte
fails here. The 16 B and 40 B files starve the screen and take the
unscreened fallback; the 1 KiB and 4 KiB files upload but fail to decode
under the channel, each with a pinned recovered count.
"""

import hashlib
import json
import math
import random

import pytest

from dnavault.contract import StorageContract, StoreParams
from dnavault.errors import DecodeFailed, ScreenStarvation
from dnavault.fountain import DEFAULT_SCREEN, encode_droplets, fragment
from dnavault.ledger import Validator
from dnavault.network import Cluster
from dnavault.rng import derive_seed
from dnavault.synthesis import ErrorModel

PARAMS = StoreParams(error_model=ErrorModel(0.001, rng_seed=7), coverage=5)

# (name, data) in upload order; one contract stores them all.
FILES = [
    ("16B", random.Random(16).randbytes(16)),
    ("40B", random.Random(40).randbytes(40)),
    ("1KiB", random.Random(1002).randbytes(1024)),
    ("4KiB", random.Random(4096).randbytes(4096)),
    ("64KiB", random.Random(65536).randbytes(65536)),
]

# name -> (receipt sha256, [sha256 of each bead's oligos], download outcome)
GOLDEN = {
    "16B": (
        "6bc27c3d18248237c85e66697a14f72c78421877c89bdada1a335fd55b98d64c",
        [
            "67b64d1da46a7d6d7a8c209e1da742c409f339524e309b152c4c493ae48ab2e9",
            "6c0f0f3ca518ae280947723785962abf29555a0c637cdc2d28e4d0f20c5cd20f",
        ],
        "ok",
    ),
    "40B": (
        "543bcc3f0084c116e4362f3fd7482e0dc651b026cc5b1020c9531c96c9662e7c",
        [
            "10b64933cd1fa7a6871ee704033af52f3aa4b48572644f2e512861b8cc8593a3",
            "251740b1ec3d5b6cb188c6139183209a5e301e6b265df4a6fdd29cd9fd767e4a",
            "d59c2321fc14ff23431cef6c38a61f4e27ece699bee3da1a4b35dfe08244b8a0",
            "edb52494f35a61e8c768b3c90bf8f4eb79ac5cf93cae956d1f06ae988fc0763c",
        ],
        "ok",
    ),
    "1KiB": (
        "f9cbe45490556bf1829ed18a0d3baa909aceffeea8c3822419d9c70e27920995",
        [
            "f4d915a8a4f3ca53402a7d60ab06b93c273560e6a4b1a53997acc10a2bf5dbff",
            "1d40be2b37dd28dabf0b4201c38a855089a3956c4689465ed29cc39d6d721f2d",
            "ee3ec477741f987bcceb587c35ee80d0a17a714e56eda54a181f359aba033a07",
            "b165d1137b9a6a55affa8a1a2ffd5eab190083a8dc1033f74fa3b0b6ea5bf2ff",
        ],
        "DecodeFailed 3/32",
    ),
    "4KiB": (
        "40bd97621e71a109765f6e1b8c33e9813f209ecfaf610747d8c3233d148064ec",
        [
            "62683fcad084b7a4b57a652b2f26468a4aa30ec9b71f141ad80d567537037ab5",
            "b5c0491900a1fc28a72bca60d6625922b07f7138e0d26add978a1019338a40a5",
            "309043a3e3e2bba5dff0caea339db011892838d48d8794512f323ae5fd901f81",
            "1ddbf1e3b456be995a6cd40ef565dac6160fa678906b3b60652b30ff51ce0f68",
        ],
        "DecodeFailed 63/128",
    ),
    "64KiB": (
        "4d5018d5061aa22c567c42536ec75f4044776564c082bd890ff93b4af23a7974",
        [
            "c61e33d929857e5e7523759e522ef19d599485e037949d9612d49c46e4d52eee",
            "b25b9a892bde8cf2b900d8296a3c8a1f33534e9bd9473877daada9f436b1db5c",
            "46e4afd176a31b750b960fc34356b55ba58d913eedf8deca8454faa8b76605c8",
            "726358b5e62843a70a68378366c6dccda32d2a76e30c9ba0105bf60aa73229f5",
        ],
        "ok",
    ),
}
GOLDEN_TIP = "0b26808fc50a992ce9b88a38c32c68599c79fdb9e37e1b6177b3ff082f9de133"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _store_all():
    cluster = Cluster([f"node-{i:02d}" for i in range(10)])
    contract = StorageContract(
        cluster, [Validator("v-a", 1), Validator("v-b", 3)], defaults=PARAMS, clock=lambda: 1_700_000_000
    )
    seen = {}
    for name, data in FILES:
        receipt = contract.upload_file("alice", data)
        beads = [
            _sha("\n".join(cluster.retrieve_bead(b, [(b, n) for bb, n in receipt.placement if bb == b]).oligos))
            for b in receipt.bead_ids
        ]
        try:
            outcome = "ok" if contract.download_file("alice", receipt.file_hash) == data else "wrong bytes"
        except DecodeFailed as exc:
            outcome = f"DecodeFailed {exc.recovered}/{exc.needed}"
        seen[name] = (_sha(json.dumps(receipt.to_dict(), sort_keys=True)), beads, outcome)
    return seen, contract.chain[-1].block_hash


@pytest.mark.parametrize("name", ["16B", "40B"])
def test_golden_small_files_starve_the_screen(name):
    data = dict(FILES)[name]
    segments, _ = fragment(data, PARAMS.segment_size)
    seed = derive_seed("droplets", hashlib.sha256(data).hexdigest(), 0)
    count = math.ceil(len(segments) * PARAMS.overhead)
    with pytest.raises(ScreenStarvation):
        encode_droplets(segments, count, seed, screen=DEFAULT_SCREEN)


def test_golden_bytes_of_a_fixed_upload_set():
    seen, tip = _store_all()
    assert seen == GOLDEN
    assert tip == GOLDEN_TIP
