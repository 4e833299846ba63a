"""The stored reports under tests/data, compared with a fresh run of their
campaigns as `kmsylow verify --verify-report` compares them: the elapsed
times stripped, every other field equal.  The three benchmark campaigns
are run at the default cap and at a cap of 1000, which pins which checks
refuse and with which message; the matrix frontier campaign is refused at
the default cap on the layered orders its messages name.  The closures of
the three benchmark campaigns are also checked for the size and the count
of their membership bitmaps."""

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
    for name in ("lie_heights", "matrix_frontier")
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


@pytest.mark.parametrize("name", ["default", "bch_stretch", "matrix_stretch"])
def test_every_closure_of_a_bench_campaign_fits_a_small_bitmap(monkeypatch, name):
    # the members of every closure are coded by the columns they vary in,
    # so each fits a bitmap of at most 256 KiB; its set bits count the
    # closure's order, as they must when every block marked is new
    tables = []
    table = pgroup._Closure.table

    def kept(closure, generators):
        tables.append(table(closure, generators))
        return tables[-1]

    monkeypatch.setattr(pgroup._Closure, "table", kept)
    run_campaign(_load(f"bench/campaigns/{name}.json"))
    assert tables
    for found in tables:
        store = found.members.store
        assert type(store) is pgroup._CodeBitmap
        assert len(store.bits) <= 256 * 1024
        assert int(np.unpackbits(store.bits).sum()) == found.order
