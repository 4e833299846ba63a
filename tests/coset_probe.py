"""Test oracle: right cosets of a subgroup counted by probing, breadth-first
from the identity.  Every product of a new representative and a group
generator is tested against every representative found so far in one bulk
product, so the cost grows with the square of the index: keep indices in
the hundreds.  The oracle shares neither the Dimino stages of
kmsylow.pgroup.subgroup_index nor its use of the subgroup's generators,
only the bulk entry point and the cap's message."""

import pytest

from kmsylow.errors import EnumerationCapExceeded
from kmsylow.law import key_rows
from kmsylow.pgroup import DEFAULT_CAP, _mul_rows, subgroup_index

PROBE_LIMIT = 625  # the largest index compared: the probe takes about a second


def probe_subgroup_index(sub, group_generators, oracle, cap=DEFAULT_CAP):
    """Number of right cosets of sub inside the group the generators
    generate: a candidate r g is a new coset unless x (r g)^-1 lies in sub
    for some representative x found so far."""
    members = sub.members
    width = len(oracle.identity)
    reps = [oracle.identity]
    frontier = [oracle.identity]
    while frontier:
        nxt = []
        for r in frontier:
            for g in group_generators:
                cand = oracle.mul(r, g)
                if cand in members:
                    continue
                probes = _mul_rows(oracle, key_rows(reps, width), oracle.inv(cand))
                if members.marked(probes).any():
                    continue
                if len(reps) >= cap:
                    raise EnumerationCapExceeded(
                        f"coset count exceeded the cap of {cap}"
                    )
                reps.append(cand)
                nxt.append(cand)
        frontier = nxt
    return len(reps)


def assert_same_index(sub, group_generators, oracle):
    """subgroup_index and the probe count the same cosets under a cap of
    the index, and both refuse one below it with the same message.  Returns
    the index."""
    index = probe_subgroup_index(sub, group_generators, oracle)
    assert subgroup_index(sub, group_generators, oracle, cap=index) == index
    if index == 1:
        return index  # one coset is the identity's, which no cap refuses
    refusals = []
    for count in (subgroup_index, probe_subgroup_index):
        with pytest.raises(EnumerationCapExceeded) as refused:
            count(sub, group_generators, oracle, cap=index - 1)
        refusals.append(str(refused.value))
    assert refusals == [f"coset count exceeded the cap of {index - 1}"] * 2
    return index


def assert_same_indices(subgroups, group_generators, oracle, order):
    """assert_same_index for each distinct subgroup whose index in the group
    the generators generate, of the given order, is at most PROBE_LIMIT;
    the index must be order / |sub|.  Returns how many were compared."""
    compared = set()
    for sub in subgroups:
        index = order // sub.order
        if index > PROBE_LIMIT or frozenset(sub.elements) in compared:
            continue
        compared.add(frozenset(sub.elements))
        assert assert_same_index(sub, group_generators, oracle) == index
    return len(compared)
