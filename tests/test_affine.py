"""Tests for the truncated-polynomial matrix Sylow model."""

import random

import pytest

from kmsylow.affine import (
    AffineMatrixGroup,
    TruncatedPolyRing,
    affine_cartan_matrix,
    borel_subgroup,
    commutator_identity_check,
    congruence_subgroup,
    enumerate_special_linear,
    frattini_dimension_affine,
    iwahori_sylow_membership,
    monomial_subgroup,
    sylow_generators,
    sylow_order,
    sylow_table,
    verify_generation,
    verify_theorem1_affine,
)
from kmsylow.errors import (
    EnumerationCapExceeded,
    HypothesisViolated,
    SylowNotGenerated,
    TruncationTooShallow,
)
from kmsylow.fields import FqConfig
from kmsylow.gcm import check_off_diagonal_hypothesis
from kmsylow.pgroup import (
    SCAN_BLOCK,
    FiniteGroupTable,
    check_filtration_lemma,
    closure,
    commutator,
    derived_subgroup,
    key_rows,
)

from sylow_enumeration import brute_force_sylow, frattini_dimension_of

F2 = FqConfig(2)
F3 = FqConfig(3)
F4 = FqConfig(2, 2)
F9 = FqConfig(3, 2)


def test_ring_axioms_random():
    ring = TruncatedPolyRing(F9, 3)
    rng = random.Random(5)

    def rand():
        return tuple(rng.randrange(9) for _ in range(3))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(a, ring.add(b, c)) == ring.add(
            ring.mul(a, b), ring.mul(a, c)
        )
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    t = ring.t
    assert ring.mul(ring.mul(t, t), t) == ring.zero


def test_matrix_inverse():
    group = AffineMatrixGroup(2, F3, 3)
    _, table = sylow_table(2, F3, 3)
    rng = random.Random(11)
    for _ in range(60):
        key = table.elements[rng.randrange(table.order)]
        A = group.element(key)
        assert group.mul(A, group.inverse(A)) == group.identity
        assert group.mul(group.inverse(A), A) == group.identity


def test_membership_examples():
    group = AffineMatrixGroup(2, F2, 2)
    ring = group.ring
    assert iwahori_sylow_membership(group, group.identity)
    lower_const = group.elementary(1, 0, ring.one)
    assert not iwahori_sylow_membership(group, lower_const)
    lower_t = group.elementary(1, 0, ring.t)
    assert iwahori_sylow_membership(group, lower_t)


@pytest.mark.parametrize("k, members", [(1, 6), (2, 81)])
def test_membership_on_a_stack_matches_each_matrix(k, members):
    # SL_2(F_3) at k = 1 and the (2, F_3, 2) Sylow at k = 2, each followed
    # by its products with a lower constant elementary; mod t the members
    # are the 3 unipotent upper-triangular matrices and their products
    group = AffineMatrixGroup(2, F3, k)
    if k == 1:
        _, table = enumerate_special_linear(2, F3)
    else:
        _, table = sylow_table(2, F3, k, group=group)
    oracle = table.oracle
    lower = group.key(group.elementary(1, 0, group.ring.one))
    keys = list(table.elements) + [oracle.mul(key, lower) for key in table.elements]
    stack = key_rows(keys, group.width).reshape(-1, 2, 2, k)
    got = iwahori_sylow_membership(group, stack)
    want = [iwahori_sylow_membership(group, group.element(key)) for key in keys]
    assert got.shape == (len(keys),)
    assert got.tolist() == [bool(w) for w in want]
    assert sum(want) == members


def test_sylow_generators_shape():
    for m, fq, k in [(2, F2, 2), (2, F9, 2), (3, F2, 3)]:
        gens = sylow_generators(m, fq, k)
        assert len(gens) == m * fq.r
        group = AffineMatrixGroup(m, fq, k)
        for A in gens:
            assert group.det(A) == group.ring.one
            assert iwahori_sylow_membership(group, A)


def test_sylow_generators_q2_explicit():
    group = AffineMatrixGroup(2, F2, 2)
    gens = sylow_generators(2, F2, 2)
    upper = group.elementary(0, 1, group.ring.one)
    corner = group.elementary(1, 0, group.ring.t)
    assert gens == [upper, corner]


def test_sylow_order_values():
    assert sylow_order(2, F2, 2) == 16
    assert sylow_order(2, F2, 1) == 2
    assert sylow_order(2, F3, 3) == 2187
    assert sylow_order(3, F2, 2) == 2048


@pytest.mark.parametrize(
    "m,fq,k", [(2, F2, 2), (2, F2, 3), (2, F3, 2)], ids=["222", "223", "232"]
)
def test_membership_set_count_matches_formula(m, fq, k):
    assert len(brute_force_sylow(m, fq, k)) == sylow_order(m, fq, k)


def test_closure_matches_brute_force():
    _, table = sylow_table(2, F3, 2)
    assert set(table.elements) == brute_force_sylow(2, F3, 2)


def test_verify_generation():
    # generation needs p above the largest off-diagonal Cartan entry;
    # for 2x2 that entry is 2, so q = 2 instances genuinely fail (q = 4
    # breaks the hypothesis too, yet its generators do generate)
    for m, fq, k in [(2, F3, 2), (2, F3, 3), (3, F2, 2)]:
        assert verify_generation(m, fq, k)


def test_generation_fails_in_characteristic_two_for_m2():
    # index of the generated subgroup grows with k: the pro-2 group behind
    # these truncations is not generated by the m*r standard elements
    for k, closure_order in [(2, 8), (3, 16), (4, 16)]:
        group = AffineMatrixGroup(2, F2, k)
        oracle = group.oracle()
        gens = [group.key(A) for A in sylow_generators(2, F2, k)]
        table = closure(gens, oracle, p=2)
        assert table.order == closure_order < sylow_order(2, F2, k)
        assert not verify_generation(2, F2, k)
        assert set(table.elements) < brute_force_sylow(2, F2, k)


def test_dropping_corner_generator_loses_elements():
    # with test_verify_generation, pins both halves of every instance that
    # acceptance criterion 7 reports as generated
    for m, fq, k in [(2, F3, 2), (2, F3, 3), (3, F2, 2)]:
        group = AffineMatrixGroup(m, fq, k)
        gens = [group.key(A) for A in sylow_generators(m, fq, k)]
        partial = closure(gens[: -fq.r], group.oracle(), p=fq.p)
        assert partial.order < sylow_order(m, fq, k)


def test_verify_generation_cap():
    with pytest.raises(EnumerationCapExceeded):
        verify_generation(3, F3, 3, cap=1000)


def test_frattini_dimensions():
    assert frattini_dimension_affine(2, F3, 2) == 2
    assert frattini_dimension_affine(2, F3, 3) == 2
    assert frattini_dimension_affine(2, F9, 2) == 4
    assert frattini_dimension_affine(2, F3, 1) == 1
    assert frattini_dimension_affine(3, F3, 2) == 3


def test_frattini_dimension_refused_when_generators_fall_short():
    # the closure has d = 2 = m*r, which would pass for a confirmation;
    # the Sylow itself, enumerated by membership, has d = 3, 4, 4
    for k, d in [(2, 3), (3, 4), (4, 4)]:
        with pytest.raises(SylowNotGenerated):
            frattini_dimension_affine(2, F2, k)
        sylow = brute_force_sylow(2, F2, k)
        oracle = AffineMatrixGroup(2, F2, k).oracle()
        assert frattini_dimension_of(sylow, oracle, 2) == d


def test_frattini_dimension_of_enumeration_matches_generated_sylow():
    sylow = brute_force_sylow(2, F3, 2)
    oracle = AffineMatrixGroup(2, F3, 2).oracle()
    d = frattini_dimension_of(sylow, oracle, 3)
    assert d == frattini_dimension_affine(2, F3, 2)


def test_affine_hypothesis_bound():
    # A_1^(1) is a double bond; longer cycles have single bonds only
    for m, bound in [(2, 2), (3, 1), (4, 1)]:
        assert check_off_diagonal_hypothesis(affine_cartan_matrix(m), 3) == bound


@pytest.mark.parametrize("m,h1", [(2, 2), (3, 3)])
def test_verify_theorem1_affine_matches_reference(m, h1):
    report = verify_theorem1_affine(m, F3, 2)
    assert report.pop("elapsed_ms") >= 0
    assert report == {
        "model": "affine_matrix",
        "gcm": None,
        "m": m,
        "k": 2,
        "q": 3,
        "H": None,
        "h1_blackbox": h1,
        "h1_linear": None,
        "h1_predicted": h1,
        "frattini_eq_derived": True,
        "thm_ii_lhs_order": None,
        "thm_ii_rhs_order": None,
        "generators_generate": True,
    }


def test_verify_theorem1_affine_hypothesis():
    with pytest.raises(HypothesisViolated, match="off-diagonal size 2"):
        verify_theorem1_affine(2, F2, 2)
    report = verify_theorem1_affine(3, F2, 2)
    assert report["h1_blackbox"] == report["h1_predicted"] == 3


def test_commutator_identity_basic():
    assert commutator_identity_check(F2, 1, 1, 1, 1, 9)
    with pytest.raises(TruncationTooShallow):
        commutator_identity_check(F2, 1, 1, 1, 1, 3)


def test_commutator_identity_exhaustive_f3():
    for r_val in range(3):
        for s_val in range(3):
            for m_exp in (1, 2):
                for n_exp in (1, 2):
                    assert commutator_identity_check(
                        F3, r_val, s_val, m_exp, n_exp, 9
                    )


def test_commutator_identity_f4():
    for r_val in range(4):
        for s_val in range(4):
            assert commutator_identity_check(F4, r_val, s_val, 2, 3, 10)


def test_congruence_chain():
    pre = sylow_table(2, F3, 3)
    _, table = pre
    chain = [
        congruence_subgroup(2, F3, 3, i, precomputed=pre) for i in (1, 2, 3)
    ]
    assert [K.order for K in chain] == [3 ** 6, 3 ** 3, 1]
    oracle = table.oracle
    for K in chain:
        for key in K.elements:
            for g in table.generators:
                conj = oracle.mul(oracle.mul(g, key), oracle.inv(g))
                assert conj in K.element_set
    # successive quotients are elementary abelian
    for K, K_next in zip(chain, chain[1:]):
        sample = K.elements[:30]
        for a in sample:
            for b in sample:
                assert commutator(oracle, a, b) in K_next.element_set
            powed = a
            for _ in range(2):
                powed = oracle.mul(powed, a)
            assert powed in K_next.element_set


def test_scans_across_block_boundaries():
    pre = sylow_table(2, F3, 4)
    assert pre[1].order == 3 ** 10 > SCAN_BLOCK
    chain = [congruence_subgroup(2, F3, 4, i, precomputed=pre) for i in (1, 2, 3, 4)]
    assert [K.order for K in chain] == [3 ** 9, 3 ** 6, 3 ** 3, 1]
    group, table = pre
    assert verify_generation(2, F3, 4, precomputed=pre)
    # one non-member in the last block fails the membership scan
    outsider = group.key(group.elementary(1, 0, group.ring.one))
    forged = FiniteGroupTable(table.oracle, (), table.elements[:-1] + (outsider,))
    assert not verify_generation(2, F3, 4, precomputed=(group, forged))
    group, table = enumerate_special_linear(3, F3)
    assert table.order == 5616 > SCAN_BLOCK
    assert borel_subgroup(group, table).order == 108
    assert monomial_subgroup(group, table).order == 24


def test_congruence_subgroup_validation():
    with pytest.raises(ValueError):
        congruence_subgroup(2, F3, 2, 0)
    with pytest.raises(ValueError):
        congruence_subgroup(2, F3, 2, 3)


def test_filtration_lemma_on_congruence_chain():
    for k in (2, 3):
        pre = sylow_table(2, F3, k)
        _, table = pre
        V = derived_subgroup(table)
        chain = [
            congruence_subgroup(2, F3, k, i, precomputed=pre)
            for i in range(2, k + 1)
        ]
        if not chain:
            continue
        report = check_filtration_lemma(table, chain, V)
        assert all(report["normal"])
        if report["hypothesis_holds"]:
            assert report["conclusion_holds"]


def test_reduction_is_homomorphism():
    big = AffineMatrixGroup(2, F3, 3)
    small = AffineMatrixGroup(2, F3, 2)
    _, table = sylow_table(2, F3, 3, group=big)
    rng = random.Random(23)
    for _ in range(200):
        a = big.element(table.elements[rng.randrange(table.order)])
        b = big.element(table.elements[rng.randrange(table.order)])
        lhs = big.reduce_to(big.mul(a, b), small)
        rhs = small.mul(big.reduce_to(a, small), big.reduce_to(b, small))
        assert lhs == rhs
    # generators map onto generators
    gens_big = [big.reduce_to(A, small) for A in sylow_generators(2, F3, 3)]
    assert gens_big == sylow_generators(2, F3, 2)


def _reduce(big, small, keys):
    return {small.key(big.reduce_to(big.element(key), small)) for key in keys}


def test_reduction_maps_sylow_onto_sylow():
    big = AffineMatrixGroup(2, F2, 3)
    small = AffineMatrixGroup(2, F2, 2)
    # at q = 2 the standard generators close up short of the Sylow, so the
    # Sylow subgroups are the membership enumerations: 128 onto 16 elements
    big_sylow = brute_force_sylow(2, F2, 3)
    small_sylow = brute_force_sylow(2, F2, 2)
    assert (len(big_sylow), len(small_sylow)) == (128, 16)
    assert _reduce(big, small, big_sylow) == small_sylow
    # the closures of the standard generators (16 and 8 elements) also
    # reduce onto each other
    _, big_table = sylow_table(2, F2, 3, group=big)
    _, small_table = sylow_table(2, F2, 2, group=small)
    assert _reduce(big, small, big_table.elements) == set(small_table.elements)
    # at q = 3 the generated tables are the Sylow subgroups: 2 187 onto 81
    big = AffineMatrixGroup(2, F3, 3)
    small = AffineMatrixGroup(2, F3, 2)
    _, big_table = sylow_table(2, F3, 3, group=big)
    _, small_table = sylow_table(2, F3, 2, group=small)
    assert (big_table.order, small_table.order) == (
        sylow_order(2, F3, 3),
        sylow_order(2, F3, 2),
    ) == (2187, 81)
    assert _reduce(big, small, big_table.elements) == set(small_table.elements)


def test_bulk_multiplication_matches_scalar():
    group = AffineMatrixGroup(2, F9, 2)
    oracle = group.oracle()
    _, table = sylow_table(2, F9, 2, group=group)
    rng = random.Random(31)
    keys = [table.elements[rng.randrange(table.order)] for _ in range(50)]
    g = table.elements[rng.randrange(table.order)]
    assert oracle.mul_many(keys, g) == [oracle.mul(k, g) for k in keys]
