"""Golden bytes: a fixed set of uploads must store exactly these oligos.

The hashes pin everything an upload writes (every bead's oligos after the
synthesis channel, the receipt, the chain tip) and what a download then
reads back, so any change to droplet planning, the oligo screen, the peel
check, the encode ladder, consensus or decode that alters a single byte
fails here. The 16 B and 40 B files starve the screen and take the
unscreened fallback; the 1 KiB file uploads but fails to decode under the
channel, with a pinned recovered count.
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
            "cbace7e185157910e2b439663739d85fc46579feca2b80c50b2a1c6ab49c8311",
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
            "4577767344b809610c0f45181f8fb0cc56733b282c460886229edb8fc4bd1053",
            "b4ba4bedf8350819afa5e9f00a004990592e5b29028d92e143bd28e3e9008857",
            "cf7869e4a85e7cb9ec21e29e39c3c4dec9472817740c91c2239f17ecd9b4e6fe",
            "950370f2c4e2e6e99cbcdee804459b440acd8f2f15e682182848fd9908d2d799",
        ],
        "DecodeFailed 3/32",
    ),
    "4KiB": (
        "40bd97621e71a109765f6e1b8c33e9813f209ecfaf610747d8c3233d148064ec",
        [
            "f911ff8e02ca9abb536c163d352044ae78071fa43741dc72bd770df11e635419",
            "28944e7e947c0858a8307bd4d6bc43dadf9bd6baf554332a89d76d208c2684b4",
            "7faf5b5ccf1a766a9e82fff403808f2b4ab074caf483e42cadc7ac7f275d2949",
            "dc95538a48931e83358b49924f3c3df17ca076ea4e4182edd6a8eb73d8b2d46e",
        ],
        "ok",
    ),
    "64KiB": (
        "4d5018d5061aa22c567c42536ec75f4044776564c082bd890ff93b4af23a7974",
        [
            "1cdb0bd9622b4ae3ad852ba3ade154c395244a1c3c26dabe387e7809c941d0fc",
            "175bfa73d0459e8da35a43bf9dde38e12744116f87f781aee0c73d3b9eeea23b",
            "b17344e55cb549990ec4b6dfcb07a7268124e5ca0d30bf1d5b92593f6d891e15",
            "e0c86b2aaf603d538d49a9a53d18e64da855a8fa5b609aa8cccffba63b24e5fe",
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
