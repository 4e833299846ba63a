"""Tests for exact scalars and F_q tables."""

import random
from fractions import Fraction
from itertools import product

import pytest

from kmsylow.fields import (
    FqConfig,
    QQ,
    echelon_insert,
    reduce_against,
    rref,
    smallest_irreducible,
)


def test_smallest_irreducible_known_values():
    assert smallest_irreducible(2, 2) == (1, 1)  # x^2 + x + 1
    assert smallest_irreducible(3, 2) == (1, 0)  # x^2 + 1
    assert smallest_irreducible(5, 2) == (2, 0)  # x^2 + 2


def test_prime_field_basic():
    f5 = FqConfig(5)
    assert f5.char == 5
    assert f5.add(3, 4) == 2
    assert f5.mul(3, 4) == 2
    assert f5.inv(2) == 3
    assert f5.from_fraction(Fraction(1, 2)) == 3
    with pytest.raises(ZeroDivisionError):
        f5.inv(0)
    with pytest.raises(ZeroDivisionError):
        f5.from_fraction(Fraction(1, 5))
    with pytest.raises(ValueError):
        FqConfig(6)


def field_axioms_exhaustive(fq):
    els = range(fq.q)
    for a, b in product(els, repeat=2):
        assert fq.add(a, b) == fq.add(b, a)
        assert fq.mul(a, b) == fq.mul(b, a)
        assert fq.add(a, 0) == a
        assert fq.mul(a, 1) == a
        assert fq.add(a, fq.neg(a)) == 0
        if a != 0:
            assert fq.mul(a, fq.inv(a)) == 1
    for a, b, c in product(els, repeat=3):
        assert fq.add(fq.add(a, b), c) == fq.add(a, fq.add(b, c))
        assert fq.mul(fq.mul(a, b), c) == fq.mul(a, fq.mul(b, c))
        assert fq.mul(a, fq.add(b, c)) == fq.add(fq.mul(a, b), fq.mul(a, c))


def test_fq_axioms_small_fields():
    for p, r in ((2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1)):
        field_axioms_exhaustive(FqConfig(p, r))


def test_fq_axioms_sampled_f25():
    fq = FqConfig(5, 2)
    rng = random.Random(25)
    for _ in range(2000):
        a, b, c = (rng.randrange(fq.q) for _ in range(3))
        assert fq.mul(a, fq.add(b, c)) == fq.add(fq.mul(a, b), fq.mul(a, c))
        assert fq.mul(fq.mul(a, b), c) == fq.mul(a, fq.mul(b, c))
        if a != 0:
            assert fq.mul(a, fq.inv(a)) == 1


def test_fq_basis_starts_at_one():
    for p, r in ((2, 2), (3, 2), (5, 2)):
        fq = FqConfig(p, r)
        assert fq.basis[0] == 1
        assert len(fq.basis) == r
        # basis codes are linearly independent over the prime subfield:
        # every element decomposes uniquely, so counting spans suffices
        spans = set()
        for coeffs in product(range(p), repeat=r):
            code = 0
            for c, v in zip(coeffs, fq.basis):
                code = fq.add(code, fq.mul(c % p, v))
            spans.add(code)
        assert len(spans) == fq.q


def test_fq_prime_subfield_embedding():
    fq = FqConfig(3, 2)
    for a in range(3):
        for b in range(3):
            assert fq.add(a, b) == (a + b) % 3
            assert fq.mul(a, b) == (a * b) % 3


def test_fq_frobenius_is_additive():
    for p, r in ((2, 2), (3, 2), (5, 2)):
        fq = FqConfig(p, r)
        for a in range(fq.q):
            for b in range(fq.q):
                pa = a
                pb = b
                ps = fq.add(a, b)
                for _ in range(p - 1):
                    pa = fq.mul(pa, a)
                    pb = fq.mul(pb, b)
                    ps = fq.mul(ps, fq.add(a, b))
                assert ps == fq.add(pa, pb)


def test_fq_tables_match_scalar_ops():
    fq = FqConfig(3, 2)
    for a in range(fq.q):
        for b in range(fq.q):
            assert int(fq.MUL[a, b]) == fq.mul(a, b)


def test_fq_encode_decode_roundtrip():
    fq = FqConfig(5, 2)
    for code in range(fq.q):
        assert fq.encode(fq.decode(code)) == code


def naive_rank(rows):
    # independent Fraction elimination for cross-checking rref
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rref_rank_matches_naive_oracle():
    rng = random.Random(99)
    for _ in range(100):
        nrows = rng.randint(1, 5)
        ncols = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(nrows)]
        reduced, pivots = rref(rows, QQ)
        assert len(reduced) == naive_rank(rows)
        assert pivots == sorted(pivots)
        for row, pcol in zip(reduced, pivots):
            assert row[pcol] == 1
            for other, ocol in zip(reduced, pivots):
                if ocol != pcol:
                    assert other[pcol] == 0
        # every original row reduces to zero against the rref basis
        for row in rows:
            assert all(x == 0 for x in reduce_against(row, reduced, pivots, QQ))


def test_echelon_insert_adds_exactly_the_independent_rows():
    rng = random.Random(7)
    for _ in range(100):
        ncols = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(ncols)]
                for _ in range(rng.randint(1, 6))]
        reduced, pivots = [], []
        for k, row in enumerate(rows):
            before = ([list(r) for r in reduced], list(pivots))
            added = echelon_insert(reduced, pivots, row, QQ)
            assert added == (naive_rank(rows[: k + 1]) > naive_rank(rows[:k]))
            if not added:
                assert (reduced, pivots) == before


def test_rref_over_prime_field():
    f5 = FqConfig(5)
    rows = [[1, 2, 3], [2, 4, 1], [0, 0, 1]]
    reduced, pivots = rref(rows, f5)
    assert pivots == [0, 2]
    assert len(reduced) == 2


def test_fq_from_q():
    for q, (p, r) in {2: (2, 1), 4: (2, 2), 9: (3, 2), 25: (5, 2), 256: (2, 8)}.items():
        fq = FqConfig.from_q(q)
        assert (fq.p, fq.r, fq.q) == (p, r, q)
    for q in (1, 6, 12, 257, True, "4", 4.0):
        with pytest.raises(ValueError):
            FqConfig.from_q(q)
