"""Tests for the truncated Serre-presented Lie algebra."""

import random
from fractions import Fraction
from itertools import product

import pytest

from kmsylow.errors import CharacteristicTooSmall, HeightExceedsCutoff
from kmsylow.fields import FqConfig, QQ
from kmsylow.gcm import validate_gcm
from kmsylow.lie import (
    bracket,
    build_positive_part,
    is_lyndon,
    lyndon_words,
    rho_expansion,
    lyndon_coordinates,
    standard_factorization,
)
from kmsylow.roots import REAL, RootVector, positive_roots_up_to_height, simple_root

from lie_lookup import generator_index, root_multiplicity
from lyndon_build import lyndon_build, poly_commutator
from lyndon_peeling import to_lyndon_coordinates

A2 = validate_gcm([[2, -1], [-1, 2]])
B2S = validate_gcm([[2, -1], [-2, 2]])
G2S = validate_gcm([[2, -1], [-3, 2]])
AFF = validate_gcm([[2, -2], [-2, 2]])
AFF3 = validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def rv(*coords):
    return RootVector.from_coords({i + 1: c for i, c in enumerate(coords)})


def test_is_lyndon():
    assert is_lyndon((0,))
    assert is_lyndon((0, 1))
    assert not is_lyndon((1, 0))
    assert not is_lyndon((0, 0))
    assert is_lyndon((0, 0, 1, 1))
    assert not is_lyndon((0, 1, 0, 1))
    assert not is_lyndon(())


def test_standard_factorization():
    assert standard_factorization((0, 1)) == ((0,), (1,))
    assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
    assert standard_factorization((0, 1, 1)) == ((0, 1), (1,))
    assert standard_factorization((0, 0, 1, 1)) == ((0,), (0, 1, 1))


def mobius(n):
    if n == 1:
        return 1
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def witt_dimension(n_letters, length):
    divisors = [d for d in range(1, length + 1) if length % d == 0]
    return sum(mobius(d) * n_letters ** (length // d) for d in divisors) // length


def test_lyndon_counts_match_witt_formula():
    for n in (1, 2, 3):
        for length in range(1, 7):
            assert len(lyndon_words(n, length)) == witt_dimension(n, length)


def test_rho_expansion_is_triangular():
    for length in range(1, 6):
        for w in lyndon_words(2, length) + lyndon_words(3, min(length, 4)):
            exp = rho_expansion(w)
            assert exp.get(w) == 1
            assert all(u >= w for u in exp)
            assert all(len(u) == len(w) for u in exp)


def test_to_lyndon_coordinates_roundtrip():
    # coordinates of rho(w) itself are the unit vector at w
    words = sorted(lyndon_words(2, 4))
    index = {w: i for i, w in enumerate(words)}
    for w in words:
        poly = {u: Fraction(c) for u, c in rho_expansion(w).items()}
        vec = to_lyndon_coordinates(poly, words, index, QQ)
        assert vec == [QQ.one if u == w else QQ.zero for u in words]


def test_dimensions_frozen_instances():
    cases = (
        (A2, 3, [2, 1, 0]),
        (AFF, 4, [2, 1, 2, 1]),
        (validate_gcm([[2]]), 3, [1, 0, 0]),
        (B2S, 4, [2, 1, 1, 0]),
        (G2S, 4, [2, 1, 1, 1]),
        (G2S, 5, [2, 1, 1, 1, 1]),
        (AFF3, 4, [3, 3, 2, 3]),
    )
    for gcm, cutoff, dims in cases:
        algebra = build_positive_part(gcm, cutoff)
        assert algebra.dimensions_per_height() == dims


def test_free_algebra_when_no_relation_in_range():
    # all Serre elements live above the cutoff, so dims follow the Witt formula
    gcm = validate_gcm([[2, -9], [-9, 2]])
    algebra = build_positive_part(gcm, 5)
    assert algebra.dimensions_per_height() == [witt_dimension(2, h) for h in range(1, 6)]


def test_support_agrees_with_root_enumeration():
    for gcm, cutoff in ((A2, 4), (B2S, 4), (G2S, 5), (AFF, 5), (AFF3, 4)):
        algebra = build_positive_part(gcm, cutoff)
        supported = {
            b.root for b in algebra.basis
        }
        expected = {alpha for alpha, _ in positive_roots_up_to_height(gcm, cutoff)}
        assert supported == expected


def test_real_roots_have_multiplicity_one():
    for gcm, cutoff in ((A2, 4), (B2S, 4), (G2S, 5), (AFF, 5), (AFF3, 4)):
        algebra = build_positive_part(gcm, cutoff)
        for alpha, tag in positive_roots_up_to_height(gcm, cutoff):
            if tag == REAL:
                assert root_multiplicity(algebra, alpha) == 1


def test_multiplicity_values():
    algebra = build_positive_part(A2, 3)
    assert root_multiplicity(algebra, rv(1, 1)) == 1
    assert root_multiplicity(algebra, rv(2, 0)) == 0
    aff = build_positive_part(AFF, 4)
    assert root_multiplicity(aff, rv(1, 1)) == 1
    assert root_multiplicity(aff, rv(2, 2)) == 1
    aff3 = build_positive_part(AFF3, 4)
    assert root_multiplicity(aff3, RootVector.from_coords({1: 1, 2: 1, 3: 1})) == 2
    with pytest.raises(HeightExceedsCutoff):
        root_multiplicity(algebra, rv(2, 2))


def test_multiplicity_respects_diagram_symmetry():
    algebra = build_positive_part(AFF3, 4)
    import itertools

    for alpha, _ in positive_roots_up_to_height(AFF3, 4):
        for perm in itertools.permutations((1, 2, 3)):
            image = RootVector.from_coords(
                {perm[s - 1]: c for s, c in alpha.items}
            )
            assert root_multiplicity(algebra, image) == root_multiplicity(algebra, alpha)


def e(algebra, s):
    return {generator_index(algebra, s): algebra.field.one}


def test_bracket_serre_relations():
    algebra = build_positive_part(A2, 3)
    e1, e2 = e(algebra, 1), e(algebra, 2)
    assert bracket(algebra, e1, e1) == {}
    assert bracket(algebra, e1, bracket(algebra, e1, e2)) == {}
    aff = build_positive_part(AFF, 4)
    f1, f2 = e(aff, 1), e(aff, 2)
    inner = bracket(aff, f1, bracket(aff, f1, f2))
    assert inner != {}
    assert bracket(aff, f1, inner) == {}


def test_bracket_grading():
    for gcm, cutoff in ((G2S, 5), (AFF, 4), (AFF3, 4)):
        algebra = build_positive_part(gcm, cutoff)
        for (i, j), pairs in algebra.structure.items():
            expected = algebra.basis[i].root + algebra.basis[j].root
            for k, c in pairs:
                assert algebra.basis[k].root == expected


def test_bracket_antisymmetry_exhaustive():
    algebra = build_positive_part(AFF, 4)
    fld = algebra.field
    for i in range(algebra.dimension):
        for j in range(algebra.dimension):
            lhs = bracket(algebra, {i: fld.one}, {j: fld.one})
            rhs = bracket(algebra, {j: fld.one}, {i: fld.one})
            assert lhs == {k: fld.neg(c) for k, c in rhs.items()}


def jacobi_defect(algebra, i, j, k):
    fld = algebra.field
    x, y, z = ({i: fld.one}, {j: fld.one}, {k: fld.one})
    total = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for idx, coeff in bracket(algebra, a, bracket(algebra, b, c)).items():
            v = fld.add(total.get(idx, fld.zero), coeff)
            if v == fld.zero:
                total.pop(idx, None)
            else:
                total[idx] = v
    return total


def test_jacobi_exhaustive():
    for gcm, cutoff in ((A2, 3), (B2S, 4), (G2S, 4), (AFF, 4), (AFF3, 4)):
        algebra = build_positive_part(gcm, cutoff)
        dim = algebra.dimension
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    assert jacobi_defect(algebra, i, j, k) == {}


def test_prime_field_dimensions_match_rationals():
    for gcm, cutoff in ((A2, 3), (B2S, 4), (G2S, 4), (AFF, 4), (AFF3, 4)):
        over_q = build_positive_part(gcm, cutoff)
        for p in (5, 7):
            if p <= cutoff:
                continue
            over_p = build_positive_part(gcm, cutoff, FqConfig(p))
            assert over_p.dimensions_per_height() == over_q.dimensions_per_height()


def test_structure_constants_reduce_mod_p():
    # over F_5^r the constants lie in the prime subfield, codes 0..4
    over_q = build_positive_part(AFF, 4)
    f5 = FqConfig(5)
    for fld in (f5, FqConfig(5, 2), FqConfig(5, 3)):
        over_5 = build_positive_part(AFF, 4, fld)
        # a basis element is its index, root and Lyndon word
        assert over_5.basis == over_q.basis
        for (i, j), pairs in over_q.structure.items():
            got = dict(over_5.structure.get((i, j), ()))
            want = {k: f5.from_fraction(c) for k, c in pairs if f5.from_fraction(c) != 0}
            assert got == want
        assert all(
            (i, j) in over_q.structure and 0 <= c < 5
            for (i, j), pairs in over_5.structure.items()
            for _, c in pairs
        )


def test_characteristic_too_small():
    with pytest.raises(CharacteristicTooSmall):
        build_positive_part(A2, 3, FqConfig(3))
    with pytest.raises(CharacteristicTooSmall):
        build_positive_part(AFF, 4, FqConfig(2))
    with pytest.raises(CharacteristicTooSmall):
        build_positive_part(A2, 3, FqConfig(3, 2))


def test_height_one_component_is_generators():
    rng = random.Random(1)
    for gcm in (A2, G2S, AFF3):
        algebra = build_positive_part(gcm, 3)
        assert len(algebra.by_height[1]) == gcm.size
        for s in gcm.labels:
            b = algebra.basis[generator_index(algebra, s)]
            assert b.root == simple_root(s)


def test_duval_words_equal_the_filtered_product_in_order():
    for n in range(1, 5):
        for length in range(1, 7):
            filtered = [w for w in product(range(n), repeat=length) if is_lyndon(w)]
            assert lyndon_words(n, length) == filtered
    assert lyndon_words(0, 3) == [] and lyndon_words(2, 0) == []


def test_integer_coordinates_match_field_coordinates():
    # every pairwise commutator of basis expansions, through plain integers
    # and through the field peeling of the test oracle, on the Lyndon basis
    # of the oracle build
    algebra = lyndon_build(AFF3, 5)
    expansions = [rho_expansion(b.word) for b in algebra.basis]
    words_of = {}
    for i, f in enumerate(expansions):
        for g in expansions[i + 1:]:
            comm = poly_commutator(f, g)
            if not comm:
                continue
            length = len(next(iter(comm)))
            degree = tuple(next(iter(comm)).count(s) for s in range(3))
            if degree not in words_of:
                words_of[degree] = [w for w in lyndon_words(3, length)
                                    if tuple(w.count(s) for s in range(3)) == degree]
            words = words_of[degree]
            index = {w: k for k, w in enumerate(words)}
            ints = lyndon_coordinates(comm, words)
            for fld in (QQ, FqConfig(7)):
                poly = {w: fld.from_int(c) for w, c in comm.items()}
                want = to_lyndon_coordinates(poly, words, index, fld)
                assert [fld.from_int(c) for c in ints] == want


def test_integer_coordinates_refuse_a_non_lie_element():
    with pytest.raises(AssertionError):
        lyndon_coordinates({(0, 1): 1}, lyndon_words(2, 2))
