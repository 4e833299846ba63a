"""Test oracle: the filtration lemma checked one scalar product at a time,
with the members of every table as a frozenset of keys.  The oracle shares
no membership structure and no bulk product with
kmsylow.pgroup.check_filtration_lemma, only the report's fields and the
refusals of a chain that is not nested or does not end at 1."""

import pytest

from kmsylow.errors import ChainNotNested
from kmsylow.pgroup import check_filtration_lemma


def scalar_filtration_report(G, chain, V):
    """The report of check_filtration_lemma: K_i lies in V.K_{i+1} when
    every k of K_i has some k' of K_{i+1} with k k'^-1 in V, one scalar
    product per pair tried."""
    oracle = G.oracle
    if len(chain) < 1:
        raise ChainNotNested("chain must contain at least one subgroup")
    sets = [frozenset(K.elements) for K in chain]
    for a, b in zip(sets, sets[1:]):
        if not b <= a:
            raise ChainNotNested("chain members are not nested")
    if sets[-1] != {oracle.identity}:
        raise ChainNotNested("chain must end at the trivial subgroup")
    normal = [
        all(
            oracle.mul(oracle.mul(c, x), oracle.inv(c)) in members
            for c in G.generators
            for x in K.elements
        )
        for K, members in zip(chain, sets)
    ]
    in_v = frozenset(V.elements)
    inclusions = []
    for K, K_next in zip(chain, chain[1:]):
        next_inverses = [oracle.inv(kp) for kp in K_next.elements]
        inclusions.append(
            all(
                any(oracle.mul(k, kp_inv) in in_v for kp_inv in next_inverses)
                for k in K.elements
            )
        )
    hypothesis = all(inclusions)
    return {
        "normal": normal,
        "inclusions": inclusions,
        "hypothesis_holds": hypothesis,
        "conclusion_holds": sets[0] <= in_v if hypothesis else None,
    }


def assert_filtration_reports_agree(G, chain, V):
    """check_filtration_lemma and the scalar scan give the same report, or
    refuse the chain with the same message.  Returns the report, or None
    after a refusal."""
    try:
        want = scalar_filtration_report(G, chain, V)
    except ChainNotNested as refused:
        with pytest.raises(ChainNotNested) as also:
            check_filtration_lemma(G, chain, V)
        assert str(also.value) == str(refused)
        return None
    got = check_filtration_lemma(G, chain, V)
    assert got == want
    assert all(type(v) is bool for v in got["normal"] + got["inclusions"])
    return got
