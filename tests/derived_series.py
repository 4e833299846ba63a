"""Test oracle: the derived subgroup of an enumerated table, and whether the
table is perfect.  No check of kmsylow lists a derived subgroup (theorem 1
reads the Frattini subgroup, of which it is a part), so these stay here,
built from the engine's public normal closure."""

from kmsylow.pgroup import DEFAULT_CAP, generator_commutators, normal_closure


def derived_subgroup(G, p=None, cap=DEFAULT_CAP):
    """Normal closure of the commutators of generator pairs; p, when
    given, says that G is a p-group, as in normal_closure."""
    comms = generator_commutators(G.oracle, G.generators)
    return normal_closure(comms, G.generators, G.oracle, cap=cap, p=p)


def is_perfect(G, p=None, cap=DEFAULT_CAP):
    """True iff the derived subgroup is the whole group."""
    return derived_subgroup(G, p, cap=cap).order == G.order
