"""Test oracle: the derived subgroup of an enumerated table, and whether the
table is perfect.  No check of kmsylow lists a derived subgroup (theorem 1
reads the Frattini subgroup, of which it is a part), so these stay here,
built from the engine's public normal closure."""

from kmsylow.pgroup import DEFAULT_CAP, generator_commutators, normal_closure


def derived_subgroup(G, cap=DEFAULT_CAP):
    """Normal closure of the commutators of generator pairs."""
    comms = generator_commutators(G.oracle, G.generators)
    return normal_closure(comms, G.generators, G.oracle, cap=cap, p=G.p)


def is_perfect(G, cap=DEFAULT_CAP):
    """True iff the derived subgroup is the whole group."""
    return derived_subgroup(G, cap=cap).order == G.order
