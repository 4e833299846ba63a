"""Test oracle: the generation verdict and the congruence subgroups of an
Iwahori Sylow read from its closure listed in full with its rows kept.  The
membership test scans the whole table and each K_i is filtered from it,
where affine.sylow_table reads each block as the listing forms it and keeps
only the rows of K_2.  The block is shrunk so that the streamed listing's
last two stages span several chunks."""

from types import SimpleNamespace

import numpy as np
import pytest

from kmsylow import pgroup
from kmsylow.affine import (
    IwahoriSylow,
    congruence_subgroup,
    iwahori_sylow_membership,
    verify_generation,
)
from kmsylow.pgroup import DEFAULT_CAP, FEW_ROWS, closure

from frattini_stream import _sorted, recorded_streams, streamed_stages


def _stack(sylow, rows):
    return rows.reshape(-1, sylow.m, sylow.m, sylow.k)


def whole_table_generation(sylow, table):
    """The table has the Sylow's order and every row, scanned at once,
    passes the membership test."""
    inside = iwahori_sylow_membership(sylow.group, _stack(sylow, table.rows))
    return table.order == sylow.order and bool(inside.all())


def whole_table_congruence(sylow, table, i):
    """A mask of the table's rows that are the identity mod t^i."""
    one = _stack(sylow, np.frombuffer(sylow.group.identity, dtype=np.uint8))[0]
    return (_stack(sylow, table.rows)[..., :i] == one[..., :i]).all(axis=(1, 2, 3))


def assert_streamed_listing_agrees(m, fq, k):
    """generation and every K_i read from the streamed listing against the
    whole-table scan and filters: the same verdict, and each K_i with the
    same order, the same rows and the same membership answers on the rows
    of the whole table."""
    sylow = IwahoriSylow(m, fq, k, DEFAULT_CAP)
    p, order = fq.p, sylow.count.order
    kept = closure(sylow.generators, sylow.group.oracle(), p=p)
    with pytest.MonkeyPatch.context() as patch:
        block = min(max(FEW_ROWS + 1, order // p ** 2 // 4), pgroup.SCAN_BLOCK)
        patch.setattr(pgroup, "SCAN_BLOCK", block)
        streamed = recorded_streams(patch)
        generates = verify_generation(sylow)
        deep = [congruence_subgroup(sylow, i) for i in range(2, k + 1)]
        held = "rows" in vars(sylow.table)
        chain = [congruence_subgroup(sylow, 1)] + deep
    assert streamed == streamed_stages(order, p, block)
    assert held == (not streamed)
    assert generates is whole_table_generation(sylow, kept)
    for i, K in enumerate(chain, 1):
        want = whole_table_congruence(sylow, kept, i)
        assert K.order == want.sum()
        assert np.array_equal(_sorted(K.rows), _sorted(kept.rows[want]))
        assert np.array_equal(K.members.marked(kept.rows), want)


def conjugated_sylow(fq, k):
    """The (2, q, k) Sylow, q = p, with its generators conjugated by
    u = 1 + E_21 and the corner generator listed first.  u commutes with
    the corner generator and normalizes K_1, which that generator and its
    commutators with the conjugated superdiagonal one generate, so the
    listing forms K_1, inside the Sylow, and then, in its last stage, K_1
    times powers of the superdiagonal conjugate, all outside it.  The
    conjugate has the Sylow's order, which sizes the listing in place of
    the layered count, read on the level filtration of the Sylow itself."""
    sylow = IwahoriSylow(2, fq, k, DEFAULT_CAP)
    oracle = sylow.group.oracle()
    u = sylow.group.elementary(1, 0, 1)
    upper, corner = sylow.generators
    sylow.generators = [corner, oracle.mul(oracle.mul(u, upper), oracle.inv(u))]
    sylow.count = SimpleNamespace(order=sylow.order)
    return sylow
