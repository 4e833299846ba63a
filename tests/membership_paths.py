"""The enumeration engine run twice on one polynomial-law oracle: once as
given, so that closures mark their members in a code bitmap, and once with
q unset, so that they keep a set of keys.  The two runs must list the same
elements in the same order and count the same cosets."""

import dataclasses

from kmsylow.pgroup import (
    DEFAULT_CAP,
    FiniteGroupTable,
    closure,
    commutator,
    derived_subgroup,
    frattini_quotient_dimension,
    frattini_subgroup,
    normal_closure,
    subgroup_index,
)


def enumerations(oracle, gens, p, order=None):
    """What the engine lists and counts for the group the generators
    generate; order, when given, is the group's order, and a group over the
    default cap is left generator-presented, as theorem 1 leaves it."""
    if order is None or order <= DEFAULT_CAP:
        G = closure(gens, oracle, p=p)
    else:
        G = FiniteGroupTable(oracle, gens, p=p)
    phi = frattini_subgroup(G)
    # a third commutator, whose normal closure is not the Frattini subgroup
    seeds = [commutator(oracle, commutator(oracle, gens[0], gens[1]), gens[0])]
    return {
        "closure": G.elements,
        "members": type(closure(gens[:1], oracle).members).__name__,
        "normal_closure": normal_closure(seeds, gens, oracle, p=p).elements,
        "derived_subgroup": derived_subgroup(G).elements,
        "frattini_subgroup": phi.elements,
        "subgroup_index": subgroup_index(phi, gens, oracle),
        "frattini_quotient_dimension": frattini_quotient_dimension(G),
    }


def assert_membership_paths_agree(oracle, gens, p, order=None):
    bitmap = enumerations(oracle, gens, p, order)
    keyset = enumerations(dataclasses.replace(oracle, q=None), gens, p, order)
    assert (bitmap.pop("members"), keyset.pop("members")) == ("_CodeBitmap", "_KeySet")
    assert bitmap == keyset
