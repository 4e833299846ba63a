"""Test oracle: theorem 1's Frattini count, whose last two stages stream,
against the Frattini subgroup listed with its rows kept.  FrattiniCount.index
is given the layered orders (lead), so its normal closure of Phi streams
each of the last two stages that starts from more than one chunk; the block
is shrunk so that they span several.  The kept listing is the unsized
normal_closure of the same seeds, so it shares no order with the count."""

import numpy as np
import pytest

from kmsylow import pgroup
from kmsylow.law import row_keys
from kmsylow.pgroup import FEW_ROWS, FrattiniCount, _mul_rows, normal_closure, subgroup_index

# rows probed for membership, from each coset and at random
PROBES = 512


def _sorted(rows):
    """The rows as a sorted array of void scalars: two listings of distinct
    rows hold the same elements exactly when these are equal."""
    rows = np.ascontiguousarray(rows)
    return np.sort(rows.view(np.dtype((np.void, rows.shape[1]))).ravel())


def streamed_stages(order, p, block):
    """The orders of H at the stages that a closure of the given order
    streams under blocks of the given size: the last two, each where H
    spans more than one block."""
    return [h for h in (order // p ** 2, order // p) if h > block]


def recorded_streams(patch):
    """Patch _Closure._stream, with the monkeypatch given, to record the
    order of H at each stage that streams; returns the list it fills."""
    streamed = []
    stream = pgroup._Closure._stream

    def recorded(state, g):
        streamed.append(state.size)
        return stream(state, g)

    patch.setattr(pgroup._Closure, "_stream", recorded)
    return streamed


def assert_streamed_frattini_agrees(gens, oracle, p, lead, q):
    """The streamed Phi and its index against Phi listed with its rows kept:
    equal orders, elements, membership answers on members and on
    non-members, and index."""
    count = FrattiniCount(gens, oracle, p, lead)
    with pytest.MonkeyPatch.context() as patch:
        # several chunks to the last two stages of the smaller instances too
        block = min(max(FEW_ROWS + 1, count.frattini_order // p ** 2 // 4), pgroup.SCAN_BLOCK)
        patch.setattr(pgroup, "SCAN_BLOCK", block)
        streamed = recorded_streams(patch)
        phi, index = count.index()
    kept = normal_closure(count.seeds, gens, oracle, p=p)
    assert phi.order == kept.order == count.frattini_order
    # the stages from |Phi| / p^2 and |Phi| / p elements stream when they
    # span several chunks
    assert streamed == streamed_stages(phi.order, p, block)
    assert not streamed or "rows" not in vars(phi)
    assert np.array_equal(_sorted(phi.rows), _sorted(kept.rows))

    rng = np.random.default_rng(phi.order)
    members = kept.rows[rng.integers(kept.order, size=PROBES)]
    probes = [members, rng.integers(q, size=(PROBES, len(oracle.identity)), dtype=np.uint8)]
    probes += [_mul_rows(oracle, members, g) for g in gens]
    for rows in probes:
        assert np.array_equal(phi.members.marked(rows), kept.members.marked(rows))
        keys = row_keys(rows[:FEW_ROWS])
        assert [k in phi for k in keys] == [k in kept for k in keys]
    assert index == subgroup_index(kept, gens, oracle)
