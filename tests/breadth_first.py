"""Test oracle: closures listed breadth-first, every element found times
every generator, with a set of keys for membership.  The oracle shares
neither the Dimino stages nor the code structures of kmsylow.pgroup, only
the bulk entry point, the block size and the cap's message."""

import pytest

from kmsylow.errors import EnumerationCapExceeded
from kmsylow.law import key_rows, row_keys
from kmsylow.pgroup import (
    DEFAULT_CAP,
    SCAN_BLOCK,
    _mul_rows,
    _power,
    closure,
    generator_commutators,
    normal_closure,
)


class BreadthFirstClosure:
    """A growing closure: its elements in the order found, checked against
    the cap a block of products at a time."""

    def __init__(self, oracle, cap):
        self.oracle = oracle
        self.cap = cap
        self.order = [oracle.identity]
        self.members = {oracle.identity}
        self.gens = []

    def _absorb(self, keys, g):
        novel = []
        for start in range(0, len(keys), SCAN_BLOCK):
            chunk = key_rows(keys[start : start + SCAN_BLOCK], len(g))
            block = row_keys(_mul_rows(self.oracle, chunk, g))
            fresh = [k for k in block if k not in self.members]
            self.members.update(fresh)
            if len(self.order) + len(fresh) > self.cap:
                raise EnumerationCapExceeded(
                    f"closure exceeded the cap of {self.cap} elements"
                )
            self.order += fresh
            novel += fresh
        return novel

    def add_generators(self, new_gens):
        fresh = [
            g
            for g in dict.fromkeys(new_gens)
            if g != self.oracle.identity and g not in self.gens
        ]
        if not fresh:
            return
        old = list(self.order)
        self.gens.extend(fresh)
        frontier = []
        for g in fresh:
            frontier.extend(self._absorb(old, g))
        while frontier:
            nxt = []
            for g in self.gens:
                nxt.extend(self._absorb(frontier, g))
            frontier = nxt


def breadth_first_closure(generators, oracle, cap=DEFAULT_CAP):
    """The elements of the subgroup the generators generate."""
    state = BreadthFirstClosure(oracle, cap)
    state.add_generators(list(generators))
    return state.order


def breadth_first_normal_closure(seeds, conjugators, oracle, cap=DEFAULT_CAP):
    """The elements of the smallest subgroup holding the seeds that the
    conjugators normalize: the closure of the seeds and of every conjugate
    of a generator that is not yet a member."""
    state = BreadthFirstClosure(oracle, cap)
    seeds = [s for s in dict.fromkeys(seeds) if s != oracle.identity]
    state.add_generators(seeds)
    conjs = [(c, oracle.inv(c)) for c in dict.fromkeys(conjugators)]
    worklist = list(seeds)
    for t in worklist:
        for c, c_inv in conjs:
            x = oracle.mul(oracle.mul(c_inv, t), c)
            if x not in state.members:
                worklist.append(x)
                state.add_generators([x])
    return state.order


def assert_same_subgroup(engine, oracle):
    """engine(cap) and oracle(cap) list one subgroup, the first as a table
    and the second as a list of keys.  Both list the same elements under a
    cap of the subgroup's order, and both refuse one below it with the same
    message."""
    elements = oracle(DEFAULT_CAP)
    table = engine(len(elements))
    assert table.order == len(elements) == len(set(table.elements))
    assert set(table.elements) == set(elements)
    if len(elements) == 1:
        return  # the trivial subgroup multiplies nothing, so no cap applies
    refusals = []
    for run in (engine, oracle):
        with pytest.raises(EnumerationCapExceeded) as refused:
            run(len(elements) - 1)
        refusals.append(str(refused.value))
    assert refusals[0] == refusals[1]


def assert_closures_agree(gens, oracle, p, order=None):
    """The closure of the generators, unless its order is known to pass the
    default cap, and their Frattini subgroup, the normal closure of their
    commutators and p-th powers, each as assert_same_subgroup."""
    if order is None or order <= DEFAULT_CAP:
        assert_same_subgroup(
            lambda cap: closure(gens, oracle, cap=cap, p=p),
            lambda cap: breadth_first_closure(gens, oracle, cap=cap),
        )
    seeds = generator_commutators(oracle, gens)
    seeds += [_power(oracle, g, p) for g in gens]
    assert_same_subgroup(
        lambda cap: normal_closure(seeds, gens, oracle, cap=cap, p=p),
        lambda cap: breadth_first_normal_closure(seeds, gens, oracle, cap=cap),
    )
