"""The enumeration engine run three times on one polynomial-law oracle:
once as given, so that closures mark their members in a code bitmap; once
with a bitmap limit of one code, so that at the first column that varies
they decode the codes held into a set of keys and move to it; and once
with q unset, so that they keep a set of keys from the start.  The three
runs must list the same elements in the same order and count the same
cosets: of the Frattini subgroup and, while the index is small, of the
first generator's closure, which need not be normal."""

import dataclasses

import pytest

from kmsylow import pgroup
from kmsylow.pgroup import (
    DEFAULT_CAP,
    FrattiniCount,
    closure,
    commutator,
    generator_commutators,
    normal_closure,
    subgroup_index,
)

from sylow_enumeration import frattini_quotient_dimension

# the largest index of the first generator's closure whose cosets are
# counted: where the closure is not normal, each count probes every listed
# representative, so the work grows with the square of the index
LINE_INDEX_LIMIT = 625


def enumerations(oracle, gens, p, order=None):
    """What the engine lists and counts for the group the generators
    generate; order, when given, is the group's order.  A group over the
    default cap is not listed, as in theorem 1: its derived subgroup is the
    normal closure of the generator commutators, and its Frattini subgroup
    and index come from FrattiniCount."""
    comms = generator_commutators(oracle, gens)
    out = {"derived_subgroup": normal_closure(comms, gens, oracle, p=p).elements}
    phi, index = FrattiniCount(gens, oracle, p).index()
    if order is None or order <= DEFAULT_CAP:
        G = closure(gens, oracle, p=p)
        order = G.order
        out["closure"] = G.elements
        out["frattini_quotient_dimension"] = frattini_quotient_dimension(G, p)
    # a third commutator, whose normal closure is not the Frattini subgroup
    seeds = [commutator(oracle, commutator(oracle, gens[0], gens[1]), gens[0])]
    line = closure(gens[:1], oracle)
    if order // line.order <= LINE_INDEX_LIMIT:
        out["line_index"] = subgroup_index(line, gens, oracle)
    return dict(
        out,
        members=path(line.members),
        normal_closure=normal_closure(seeds, gens, oracle, p=p).elements,
        frattini_subgroup=phi.elements,
        subgroup_index=index,
    )


def path(members):
    """The name of the structure that holds a table's members: its codes,
    or its set of keys."""
    return type(members).__name__


def assert_membership_paths_agree(oracle, gens, p, order=None):
    bitmap = enumerations(oracle, gens, p, order)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pgroup, "BITMAP_CODES", 1)
        decoded = enumerations(oracle, gens, p, order)
    keyset = enumerations(dataclasses.replace(oracle, q=None), gens, p, order)
    paths = [run.pop("members") for run in (bitmap, decoded, keyset)]
    assert paths == ["_Codes", "_KeySet", "_KeySet"]
    assert bitmap == decoded == keyset
