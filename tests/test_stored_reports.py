"""The stored reports under tests/data, compared with a fresh run of their
campaigns as `kmsylow verify --verify-report` compares them: the elapsed
times stripped, every other field equal.  The three benchmark campaigns
are run at the default cap and at a cap of 1000, which pins which checks
refuse and with which message; the matrix frontier campaign is refused at
the default cap on the layered orders its messages name, and the code
space frontier campaign lists the closures with the largest code spaces
under the default cap.  The closures of the three benchmark campaigns and
of the code space frontier are also checked for the kind, the size and the
count of their membership bitmaps."""

import json
import os

import numpy as np
import pytest

from kmsylow import pgroup
from kmsylow.cli import _strip_volatile, run_campaign

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (campaign file, cap, stored report), paths from the root of the repo
STORED = [
    (f"bench/campaigns/{name}.json", cap, f"tests/data/{name}{suffix}.json")
    for name in ("default", "bch_stretch", "matrix_stretch")
    for cap, suffix in ((None, ""), (1000, ".cap1000"))
] + [
    (f"tests/campaigns/{name}.json", None, f"tests/data/{name}.json")
    for name in ("lie_heights", "matrix_frontier", "code_space_frontier")
]


def _load(path):
    with open(os.path.join(ROOT, path)) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "campaign,cap,stored", STORED, ids=[stored for _, _, stored in STORED]
)
def test_campaign_matches_its_stored_report(campaign, cap, stored):
    report = run_campaign(_load(campaign), cap=cap)
    assert _strip_volatile(report) == _strip_volatile(_load(stored))


@pytest.mark.parametrize(
    "campaign,bitmap_bytes",
    [
        (f"bench/campaigns/{name}.json", 256 * 1024)
        for name in ("default", "bch_stretch", "matrix_stretch")
    ]
    + [("tests/campaigns/code_space_frontier.json", pgroup.BITMAP_CODES // 8)],
    ids=["default", "bch_stretch", "matrix_stretch", "code_space_frontier"],
)
def test_every_closure_of_a_campaign_fits_its_bitmap(monkeypatch, campaign, bitmap_bytes):
    # the members of every closure are coded by the columns they vary in,
    # so each fits a bitmap: of at most 256 KiB in the benchmark campaigns,
    # and of at most BITMAP_CODES bits in the code space frontier, whose
    # Sylows and Frattini subgroup vary in 2^26 to 17^7 codes.  Its set
    # bits count the closure's order, as they must when every block marked
    # is new.  Each table is read when it is made and then dropped, so the
    # frontier's bitmaps are not all held at once
    found = []
    table = pgroup._Closure.table

    def read(closure, generators):
        made = table(closure, generators)
        kind = type(made.members)
        bits = made.members.bits if kind is pgroup._Codes else np.zeros(0, np.uint8)
        set_bits = int(np.unpackbits(bits[np.flatnonzero(bits)]).sum())
        found.append((kind, len(bits), set_bits, made.order))
        return made

    monkeypatch.setattr(pgroup._Closure, "table", read)
    run_campaign(_load(campaign))
    assert found
    for kind, size, set_bits, order in found:
        assert kind is pgroup._Codes
        assert size <= bitmap_bytes
        assert set_bits == order
