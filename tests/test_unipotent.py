"""Tests for the truncated exponential group over F_q."""

import random

import pytest

from kmsylow.errors import (
    CharacteristicTooSmall,
    HeightExceedsCutoff,
    HypothesisViolated,
    NotPositiveRealRoot,
)
from kmsylow.fields import FqConfig
from kmsylow.gcm import validate_gcm
from kmsylow.pgroup import closure, commutator, normal_closure
from kmsylow.roots import RootVector
from kmsylow.unipotent import (
    UnipotentModel,
    frattini_dimension_linear,
    height_filtration,
    root_group_element,
    standard_generators,
    verify_theorem1,
)

A2 = validate_gcm([[2, -1], [-1, 2]])
B2S = validate_gcm([[2, -1], [-2, 2]])
G2S = validate_gcm([[2, -1], [-3, 2]])
AFF = validate_gcm([[2, -2], [-2, 2]])


def rv(**coords):
    return RootVector.from_coords({int(k): v for k, v in coords.items()})


def random_element(model, rng):
    return tuple(rng.randrange(model.fq.q) for _ in range(model.dim))


def test_characteristic_guard():
    with pytest.raises(CharacteristicTooSmall):
        UnipotentModel(A2, FqConfig(3), 3)
    with pytest.raises(CharacteristicTooSmall):
        UnipotentModel(A2, FqConfig(2, 2), 3)
    UnipotentModel(A2, FqConfig(5), 3)


def test_identity_and_inverse():
    model = UnipotentModel(A2, FqConfig(5), 3)
    rng = random.Random(1)
    for _ in range(50):
        x = random_element(model, rng)
        assert model.multiply(x, model.identity) == x
        assert model.multiply(model.identity, x) == x
        assert model.multiply(x, model.inverse(x)) == model.identity
        assert model.multiply(model.inverse(x), x) == model.identity


def test_associativity_random():
    for gcm, q, H in [(A2, 5, 3), (B2S, 5, 4), (G2S, 7, 4), (A2, 25, 3)]:
        model = UnipotentModel(gcm, FqConfig.from_q(q), H)
        rng = random.Random(q * 100 + H)
        for _ in range(120):
            x, y, z = (random_element(model, rng) for _ in range(3))
            left = model.multiply(model.multiply(x, y), z)
            right = model.multiply(x, model.multiply(y, z))
            assert left == right


def test_exponent_p():
    for gcm, q, H in [(A2, 5, 3), (B2S, 5, 4), (A2, 25, 3)]:
        model = UnipotentModel(gcm, FqConfig.from_q(q), H)
        rng = random.Random(7)
        for _ in range(40):
            x = random_element(model, rng)
            assert model.power(x, model.fq.p) == model.identity


def test_unitriangular_cross_check():
    # A_2 at height 3 is the strictly upper triangular 3x3 algebra; the
    # exponential sends (a, b, c) to I + aE12 + bE23 + (c + ab/2)E13
    p = 5
    model = UnipotentModel(A2, FqConfig(p), 3)
    i1 = model.algebra.generator_index(1)
    i2 = model.algebra.generator_index(2)
    i12 = model.algebra.by_degree[rv(**{"1": 1, "2": 1})][0]
    inv2 = pow(2, p - 2, p)

    def to_matrix(x):
        a, b, c = x[i1], x[i2], x[i12]
        return (a, b, (c + a * b * inv2) % p)

    def matrix_mul(m1, m2):
        # entries (x12, x23, x13) of unitriangular matrices
        return (
            (m1[0] + m2[0]) % p,
            (m1[1] + m2[1]) % p,
            (m1[2] + m2[2] + m1[0] * m2[1]) % p,
        )

    rng = random.Random(13)
    for _ in range(200):
        x = random_element(model, rng)
        y = random_element(model, rng)
        z = model.multiply(x, y)
        assert to_matrix(z) == matrix_mul(to_matrix(x), to_matrix(y))


def test_commutator_of_simple_generators_is_height_two():
    model = UnipotentModel(A2, FqConfig(5), 3)
    oracle = model.oracle()
    e1 = model.key(root_group_element(model, rv(**{"1": 1}), 1))
    e2 = model.key(root_group_element(model, rv(**{"2": 1}), 1))
    expected = model.key(root_group_element(model, rv(**{"1": 1, "2": 1}), 1))
    assert commutator(oracle, e1, e2) == expected


def test_root_group_additivity():
    for gcm, q, H in [(A2, 5, 3), (B2S, 5, 4), (A2, 25, 3)]:
        model = UnipotentModel(gcm, FqConfig.from_q(q), H)
        fq = model.fq
        roots = [b.root for b in model.algebra.basis]
        from kmsylow.roots import REAL, root_status

        real_roots = [g for g in roots if root_status(gcm, g).tag == REAL]
        for gamma in real_roots:
            for a in range(min(q, 8)):
                for b in range(min(q, 8)):
                    lhs = model.multiply(
                        root_group_element(model, gamma, a),
                        root_group_element(model, gamma, b),
                    )
                    assert lhs == root_group_element(model, gamma, fq.add(a, b))


def test_root_group_element_errors():
    model = UnipotentModel(A2, FqConfig(5), 3)
    with pytest.raises(NotPositiveRealRoot):
        root_group_element(model, rv(**{"1": -1}), 1)
    with pytest.raises(NotPositiveRealRoot):
        root_group_element(model, rv(**{"1": 1, "2": 2}), 1)  # not a root
    aff_model = UnipotentModel(AFF, FqConfig(5), 4)
    with pytest.raises(NotPositiveRealRoot):
        root_group_element(aff_model, rv(**{"1": 1, "2": 1}), 1)  # imaginary
    with pytest.raises(HeightExceedsCutoff):
        root_group_element(aff_model, rv(**{"1": 3, "2": 2}), 1)


def test_power_and_order_of_element():
    model = UnipotentModel(A2, FqConfig(5), 3)
    x = root_group_element(model, rv(**{"1": 1}), 1)
    assert model.power(x, 0) == model.identity
    assert model.power(x, 3) == root_group_element(model, rv(**{"1": 1}), 3)
    assert model.power(x, -1) == model.inverse(x)


def test_bulk_multiplication_matches_scalar():
    for gcm, q, H in [(A2, 5, 3), (B2S, 5, 4), (A2, 25, 3)]:
        model = UnipotentModel(gcm, FqConfig.from_q(q), H)
        oracle = model.oracle()
        rng = random.Random(q + H)
        keys = [model.key(random_element(model, rng)) for _ in range(40)]
        g = model.key(random_element(model, rng))
        bulk = oracle.mul_many(keys, g)
        assert bulk == [oracle.mul(k, g) for k in keys]


def test_height_filtration_properties():
    model = UnipotentModel(B2S, FqConfig(5), 4)
    oracle = model.oracle()
    chain = height_filtration(model, oracle)
    assert chain[0].order == 5 ** model.dim
    assert chain[-1].order == 1
    gens = [model.key(g) for g in standard_generators(model)]
    dims = model.algebra.dimensions_per_height()
    for i, U in enumerate(chain, start=1):
        assert U.order == 5 ** sum(dims[i - 1 :])
        for u in U.elements[:50]:
            for g in gens:
                conj = oracle.mul(oracle.mul(g, u), oracle.inv(g))
                assert conj in U.element_set
    # commutators of U_i with U_j land in U_{i+j}
    rng = random.Random(3)
    for i in range(1, model.cutoff + 1):
        for j in range(1, model.cutoff + 2 - i):
            Ui, Uj, Uij = chain[i - 1], chain[j - 1], chain[i + j - 1]
            for _ in range(20):
                a = Ui.elements[rng.randrange(Ui.order)]
                b = Uj.elements[rng.randrange(Uj.order)]
                assert commutator(oracle, a, b) in Uij.element_set


def test_first_quotient_is_elementary_abelian():
    model = UnipotentModel(A2, FqConfig(5), 3)
    oracle = model.oracle()
    chain = height_filtration(model, oracle)
    U1, U2 = chain[0], chain[1]
    assert U1.order // U2.order == 5 ** A2.size
    for a in U1.elements[:40]:
        for b in U1.elements[:40]:
            assert commutator(oracle, a, b) in U2.element_set


def test_frattini_dimension_linear_values():
    assert frattini_dimension_linear(UnipotentModel(A2, FqConfig(5), 3)) == 2
    assert frattini_dimension_linear(UnipotentModel(G2S, FqConfig(5), 4)) == 2
    assert frattini_dimension_linear(UnipotentModel(A2, FqConfig(5, 2), 3)) == 4
    assert frattini_dimension_linear(UnipotentModel(AFF, FqConfig(5), 4)) == 2


def test_verify_theorem1_a2():
    report = verify_theorem1(A2, FqConfig(5), 3)
    assert report["h1_blackbox"] == 2
    assert report["h1_linear"] == 2
    assert report["h1_predicted"] == 2
    assert report["frattini_eq_derived"] is True
    assert report["generators_generate"] is True
    assert report["thm_ii_lhs_order"] == report["thm_ii_rhs_order"] == 5
    assert set(report) == {
        "gcm",
        "q",
        "H",
        "h1_blackbox",
        "h1_linear",
        "h1_predicted",
        "frattini_eq_derived",
        "thm_ii_lhs_order",
        "thm_ii_rhs_order",
        "generators_generate",
        "elapsed_ms",
        "caveat",
    }


def test_verify_theorem1_b2_shape():
    report = verify_theorem1(B2S, FqConfig(5), 4)
    assert report["h1_blackbox"] == 2
    assert report["h1_linear"] == 2
    assert report["frattini_eq_derived"] is True
    assert report["generators_generate"] is True
    assert report["thm_ii_lhs_order"] == report["thm_ii_rhs_order"]


def test_verify_theorem1_extension_field():
    report = verify_theorem1(A2, FqConfig(5, 2), 3)
    assert report["h1_blackbox"] == 4
    assert report["h1_linear"] == 4
    assert report["h1_predicted"] == 4
    assert report["generators_generate"] is True


def test_verify_theorem1_big_path_matches_small_path():
    # a cap below the group order forces the coset-index route
    small = verify_theorem1(A2, FqConfig(5), 3)
    big = verify_theorem1(A2, FqConfig(5), 3, cap=100)
    for key in (
        "h1_blackbox",
        "h1_linear",
        "h1_predicted",
        "frattini_eq_derived",
        "thm_ii_lhs_order",
        "thm_ii_rhs_order",
        "generators_generate",
    ):
        assert small[key] == big[key]


def test_verify_theorem1_error_precedence():
    # p too small for the series but the off-diagonal hypothesis holds
    with pytest.raises(CharacteristicTooSmall):
        verify_theorem1(A2, FqConfig(2, 2), 3)
    # off-diagonal hypothesis fails; reported before any series concern
    with pytest.raises(HypothesisViolated):
        verify_theorem1(AFF, FqConfig(2), 4)


def test_frattini_ignores_pth_powers():
    # closure of commutators alone equals closure with p-th powers added
    model = UnipotentModel(A2, FqConfig(5), 3)
    oracle = model.oracle()
    gens = [model.key(g) for g in standard_generators(model)]
    comms = [
        commutator(oracle, gens[i], gens[j])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    ]
    from kmsylow.pgroup import _power

    powers = [_power(oracle, g, 5) for g in gens]
    without = normal_closure(comms, gens, oracle)
    with_powers = normal_closure(comms + powers, gens, oracle)
    assert without.element_set == with_powers.element_set
