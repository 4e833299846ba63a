"""Building-block axiom checks on small special linear groups."""

import pytest

from kmsylow import pgroup
from kmsylow.affine import (
    AffineMatrixGroup,
    borel_subgroup,
    enumerate_special_linear,
    monomial_subgroup,
    special_linear_order,
    weyl_representatives,
)
from kmsylow.cli import run_campaign
from kmsylow.errors import EnumerationCapExceeded
from kmsylow.fields import FqConfig
from kmsylow.law import GroupOracle, key_rows, row_keys
from kmsylow.pgroup import (
    FiniteGroupTable,
    _mul_rows,
    closure,
    normal_closure,
    subgroup_index,
    verify_tits_axioms,
)

import mutants
from breadth_first import (
    assert_same_subgroup,
    breadth_first_closure,
    breadth_first_normal_closure,
)
from coset_probe import assert_same_indices
from derived_series import is_perfect
from sylow_enumeration import brute_force_special_linear

F2 = FqConfig(2)
F3 = FqConfig(3)
F4 = FqConfig(2, 2)
F5 = FqConfig(5)
F9 = FqConfig(3, 2)


def sl_data(m, fq):
    group, table = enumerate_special_linear(m, fq)
    B = borel_subgroup(group, table)
    N = monomial_subgroup(group, table)
    return group, table, B, N, weyl_representatives(group)


SPECIAL_LINEAR = pytest.mark.parametrize(
    "m,fq,order",
    [(2, F2, 6), (2, F3, 24), (3, F2, 168), (2, F4, 60), (2, F5, 120),
     (2, F9, 720), (3, F3, 5616)],
    ids=["sl2f2", "sl2f3", "sl3f2", "sl2f4", "sl2f5", "sl2f9", "sl3f3"],
)


@SPECIAL_LINEAR
def test_special_linear_equals_determinant_filter(m, fq, order):
    _, table = enumerate_special_linear(m, fq)
    assert table.order == special_linear_order(m, fq) == order
    assert frozenset(table.elements) == brute_force_special_linear(m, fq)


@SPECIAL_LINEAR
def test_dimino_and_breadth_first_closures_agree(m, fq, order):
    # SL_m itself from its transvections, and the two closures of the Tits
    # check: B and N, which generate G, and the torus and the reflections,
    # which generate N; every Tits group of the tests and campaigns is here.
    # SL_m is no p-group, so a closure given p adds power and commutator
    # generators until its nesting bound, and must still list the subgroup;
    # so must the normal closure of one transvection
    group, table, B, N, s_reps = sl_data(m, fq)
    torus = [k for k in N.elements if k in B]
    oracle = group.oracle()
    gens = table.generators
    for p in (None, 2, 3):
        for sub in (gens, B.elements + N.elements, torus + s_reps):
            assert_same_subgroup(
                lambda cap: closure(sub, oracle, cap=cap, p=p),
                lambda cap: breadth_first_closure(sub, oracle, cap=cap),
            )
        assert_same_subgroup(
            lambda cap: normal_closure(gens[:1], gens, oracle, cap=cap, p=p),
            lambda cap: breadth_first_normal_closure(gens[:1], gens, oracle, cap=cap),
        )


@SPECIAL_LINEAR
def test_dimino_and_probe_count_the_cosets_of_b(m, fq, order):
    # B as filtered from the table by membership lists no generators, which
    # the Dimino stages need; as a closure it lists its elements
    group, table, B, _, _ = sl_data(m, fq)
    oracle = group.oracle()
    with pytest.raises(ValueError, match="lists none"):
        subgroup_index(B, table.generators, oracle)
    borel = closure(B.elements, oracle)
    assert assert_same_indices([borel], table.generators, oracle, order) == 1


def test_special_linear_cap_is_checked_before_enumeration(monkeypatch):
    def unused_oracle(group):
        raise AssertionError("the oracle was built")

    with monkeypatch.context() as patch:
        patch.setattr(AffineMatrixGroup, "oracle", unused_oracle)
        with pytest.raises(EnumerationCapExceeded):
            enumerate_special_linear(3, F2, cap=167)
    assert enumerate_special_linear(3, F2, cap=168)[1].order == 168


def test_sl_orders():
    _, t22, b22, n22, _ = sl_data(2, F2)
    assert (t22.order, b22.order, n22.order) == (6, 2, 2)
    _, t23, b23, n23, _ = sl_data(2, F3)
    assert (t23.order, b23.order, n23.order) == (24, 6, 4)
    _, t32, b32, n32, _ = sl_data(3, F2)
    assert (t32.order, b32.order, n32.order) == (168, 8, 6)


def _report(bits):
    """The report dict written as its five verdicts T1 T2 T3 T4 bruhat."""
    keys = ("T1", "T2", "T3", "T4", "bruhat_partition")
    return {key: bit == "1" for key, bit in zip(keys, bits)}


def _proper(G, B, N, S):
    return B, N, S


def _no_reflections(G, B, N, S):
    return B, N, []


def _borel_is_group(G, B, N, S):
    return G, N, S


def _borel_is_torus(G, B, N, S):
    # B n N alone, so B and N generate only N
    torus = [k for k in N.elements if k in B]
    rows = key_rows(torus, len(G.oracle.identity))
    return FiniteGroupTable(G.oracle, (), rows), N, S


def _identity_reflection(G, B, N, S):
    return B, N, [G.oracle.identity]


def _first_reflection(G, B, N, S):
    return B, N, S[:1]


def _rotation_first(G, B, N, S):
    # s1 s2 has order 3, so it is no involution and breaks T3
    return B, N, [G.oracle.mul(S[0], S[1])] + list(S)


GROUPS = {"sl2f2": (2, F2), "sl2f3": (2, F3), "sl3f2": (3, F2), "sl2f4": (2, F4)}

TITS_CASES = [
    (name, variant, bits)
    for name in GROUPS
    for variant, bits in [
        (_proper, "11111"),
        (_no_reflections, "10111"),
        (_borel_is_group, "10101"),
        (_borel_is_torus, "01100"),
        (_identity_reflection, "10101"),
    ]
] + [
    ("sl3f2", _first_reflection, "10111"),
    ("sl3f2", _rotation_first, "10011"),
]


@pytest.mark.parametrize(
    "name,variant,bits",
    TITS_CASES,
    ids=[f"{name}-{variant.__name__[1:]}" for name, variant, _ in TITS_CASES],
)
def test_tits_axioms_report(name, variant, bits):
    _, G, B, N, s_reps = sl_data(*GROUPS[name])
    assert verify_tits_axioms(G, *variant(G, B, N, s_reps)) == _report(bits)


def _every_b_double_coset(oracle, B, n):
    """The reference for pgroup._double_coset: B n times every b of B, one
    product each, though most of them list a right coset of B again."""
    bn = _mul_rows(oracle, B.rows, n)
    return {x for b in B.elements for x in row_keys(_mul_rows(oracle, bn, b))}


def _with_double_cosets(monkeypatch, listing, G, B, N, S):
    """The report of verify_tits_axioms with the double cosets listed by
    listing, and the double cosets in the order listed."""
    listed = []

    def recorded(oracle, B, n):
        listed.append(listing(oracle, B, n))
        return listed[-1]

    monkeypatch.setattr(pgroup, "_double_coset", recorded)
    return verify_tits_axioms(G, B, N, S), listed


# every Tits case above, and SL_3(F_3), the Tits group of matrix_stretch;
# default's three are the proper cases of sl2f2, sl2f3 and sl3f2
LISTED_CASES = TITS_CASES + [("sl3f3", _proper, "11111")]


@pytest.mark.parametrize(
    "name,variant,bits",
    LISTED_CASES,
    ids=[f"{name}-{variant.__name__[1:]}" for name, variant, _ in LISTED_CASES],
)
def test_tits_check_lists_the_double_cosets_of_every_b(monkeypatch, name, variant, bits):
    # each right coset of B listed once gives the verdicts and the double
    # cosets of listing B n_w b for every b of B
    _, G, B, N, s_reps = sl_data(*dict(GROUPS, sl3f3=(3, F3))[name])
    args = variant(G, B, N, s_reps)
    once = _with_double_cosets(monkeypatch, pgroup._double_coset, G, *args)
    every = _with_double_cosets(monkeypatch, _every_b_double_coset, G, *args)
    assert once == every and once[0] == _report(bits)


@pytest.mark.parametrize("m,fq,cosets", [(3, F3, 52), (3, F2, 21)])
def test_tits_check_lists_each_right_coset_of_b_once(monkeypatch, m, fq, cosets):
    # |G / B| products of B's rows, where listing B n_w b for every b of B
    # took |W| |B|: 648 on SL_3(F_3) and 48 on SL_3(F_2)
    _, G, B, N, s_reps = sl_data(m, fq)
    assert G.order // B.order == cosets
    listings = []
    real = pgroup._mul_rows

    def counted(oracle, rows, g):
        listings.append(rows is B.rows)
        return real(oracle, rows, g)

    monkeypatch.setattr(pgroup, "_mul_rows", counted)
    assert verify_tits_axioms(G, B, N, s_reps) == _report("11111")
    assert sum(listings) == cosets


@pytest.mark.parametrize("m,q", [(2, 2), (2, 3), (3, 2)])
def test_a_planted_law_defect_fails_the_tits_check(m, q):
    # under the defect, B and N no longer close to G, nor the torus and the
    # reflections to N, which fails T1 and T2; some s n_w lies in no listed
    # double coset, which fails T3; and nothing raises
    campaign = {"instances": [{"model": "affine", "m": m, "q": q, "k": 1, "checks": ["tits"]}]}
    with mutants.matrix_product_drops_a_term():
        (result,) = run_campaign(campaign)["instances"][0]["results"]
    assert result["status"] == "fail"
    assert result["payload"] == _report("00010")


def test_a_planted_law_defect_fails_the_tits_check_where_g_overruns_its_order():
    # on SL_3(F_3) the transvections close past |SL_3(F_3)| = 5616 under the
    # defect: the closure of G is capped at that order, T1 fails there and
    # the other axioms go unchecked; a cap under the order is still a skip
    campaign = {"instances": [{"model": "affine", "m": 3, "q": 3, "k": 1, "checks": ["tits"]}]}
    with mutants.matrix_product_drops_a_term():
        (result,) = run_campaign(campaign)["instances"][0]["results"]
        (refused,) = run_campaign(campaign, cap=5615)["instances"][0]["results"]
        with pytest.raises(EnumerationCapExceeded, match="cap of 5616 elements"):
            enumerate_special_linear(3, F3)
    assert result["status"] == "fail"
    assert result["payload"] == {
        "T1": False, "T2": None, "T3": None, "T4": None, "bruhat_partition": None
    }
    assert refused["status"] == "skipped"
    assert refused["detail"] == "|SL_3(F_3)| = 5616 exceeds the cap of 5615"


@pytest.mark.parametrize("m,fq", [(2, F2), (3, F2)])
def test_a_closure_under_a_planted_law_defect_refuses_at_its_cap(m, fq):
    # the broken law repeats a row in a coset block, and its bit, added
    # twice, carries into the next: a representative stays unmarked and is
    # found again.  It is listed once, not popped twice, and the closure
    # runs on to its cap of 1000.  The oracle goes with its group, so a new
    # group builds the defective one
    _, _, B, N, _ = sl_data(m, fq)
    with mutants.matrix_product_drops_a_term():
        oracle = AffineMatrixGroup(m, fq, 1).oracle()
    with pytest.raises(EnumerationCapExceeded):
        closure(B.elements + N.elements, oracle, cap=1000)


def test_trivial_group_edge_case():
    oracle = GroupOracle(
        identity=b"e", mul=lambda a, b: b"e", inv=lambda a: b"e"
    )
    G = FiniteGroupTable(oracle, (), key_rows([b"e"], 1))
    report = verify_tits_axioms(G, G, G, [])
    assert report["T1"] and report["T2"] and report["T3"]
    assert report["bruhat_partition"]


def test_perfection():
    _, t22, _, _, _ = sl_data(2, F2)
    assert not is_perfect(t22)
    _, t23, _, _, _ = sl_data(2, F3)
    assert not is_perfect(t23)
    _, t24, _, _, _ = sl_data(2, F4)
    assert t24.order == 60
    assert is_perfect(t24)
    _, t32, _, _, _ = sl_data(3, F2)
    assert is_perfect(t32)
