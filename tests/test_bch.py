"""Tests for the truncated BCH series."""

from fractions import Fraction

from kmsylow.bch import bch_lyndon_terms
from kmsylow.lie import rho_expansion

from lyndon_peeling import bch_lyndon_terms_by_peeling


def expand_series(terms):
    # associative expansion of the Lyndon-bracket form
    out = {}
    for w, c in terms:
        for u, k in rho_expansion(w).items():
            out[u] = out.get(u, Fraction(0)) + c * k
    return {w: c for w, c in out.items() if c}


def exp_of(poly, max_len):
    out = {(): Fraction(1)}
    power = {(): Fraction(1)}
    fact = 1
    for k in range(1, max_len + 1):
        fact *= k
        nxt = {}
        for wp, cp in power.items():
            for wf, cf in poly.items():
                if len(wp) + len(wf) <= max_len:
                    w = wp + wf
                    nxt[w] = nxt.get(w, Fraction(0)) + cp * cf
        power = nxt
        for w, c in power.items():
            out[w] = out.get(w, Fraction(0)) + c / fact
    return {w: c for w, c in out.items() if c}


def test_low_weight_coefficients():
    terms = dict(bch_lyndon_terms(3))
    assert terms[(0,)] == 1
    assert terms[(1,)] == 1
    assert terms[(0, 1)] == Fraction(1, 2)
    assert terms[(0, 0, 1)] == Fraction(1, 12)
    assert terms[(0, 1, 1)] == Fraction(1, 12)


def test_weight_prefix_stability():
    # truncating at a higher weight never changes lower-weight coefficients
    t4 = dict(bch_lyndon_terms(4))
    t6 = dict(bch_lyndon_terms(6))
    for w, c in t4.items():
        assert t6[w] == c


def test_definitional_roundtrip():
    # exp(z) must equal exp(x) exp(y) word-for-word below the cutoff
    for max_len in (2, 3, 4, 5):
        z = expand_series(bch_lyndon_terms(max_len))
        lhs = exp_of(z, max_len)
        x = {(0,): Fraction(1)}
        y = {(1,): Fraction(1)}
        rhs = {}
        for wx, cx in exp_of(x, max_len).items():
            for wy, cy in exp_of(y, max_len).items():
                if len(wx) + len(wy) <= max_len:
                    w = wx + wy
                    rhs[w] = rhs.get(w, Fraction(0)) + cx * cy
        rhs = {w: c for w, c in rhs.items() if c}
        assert lhs == rhs


def matrix_mul(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def matrix_exp_nilpotent(m):
    n = len(m)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    power = out
    fact = 1
    for k in range(1, n):
        fact *= k
        power = matrix_mul(power, m)
        out = [[out[i][j] + power[i][j] / fact for j in range(n)] for i in range(n)]
    return out


def matrix_log_unipotent(g):
    n = len(g)
    u = [[g[i][j] - Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    out = [[Fraction(0)] * n for _ in range(n)]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n):
        power = matrix_mul(power, u)
        sign = Fraction((-1) ** (k + 1), k)
        out = [[out[i][j] + sign * power[i][j] for j in range(n)] for i in range(n)]
    return out


def eval_bracket_word(word, mx, my):
    if word == (0,):
        return mx
    if word == (1,):
        return my
    from kmsylow.lie import standard_factorization

    u, v = standard_factorization(word)
    a = eval_bracket_word(u, mx, my)
    b = eval_bracket_word(v, mx, my)
    ab = matrix_mul(a, b)
    ba = matrix_mul(b, a)
    return [[ab[i][j] - ba[i][j] for j in range(len(a))] for i in range(len(a))]


def test_against_nilpotent_matrix_logarithm():
    # strictly upper triangular 5x5 matrices: every product of length 5
    # vanishes, so log(exp x exp y) is exactly the weight <= 4 series
    import random

    rng = random.Random(44)
    terms = bch_lyndon_terms(4)
    for _ in range(10):
        mx = [[Fraction(0)] * 5 for _ in range(5)]
        my = [[Fraction(0)] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                mx[i][j] = Fraction(rng.randint(-2, 2))
                my[i][j] = Fraction(rng.randint(-2, 2))
        product = matrix_mul(matrix_exp_nilpotent(mx), matrix_exp_nilpotent(my))
        direct = matrix_log_unipotent(product)
        series = [[Fraction(0)] * 5 for _ in range(5)]
        for w, c in terms:
            term = eval_bracket_word(w, mx, my)
            series = [
                [series[i][j] + c * term[i][j] for j in range(5)] for i in range(5)
            ]
        assert series == direct


def test_denominators_bounded_by_weight():
    for max_weight in (3, 4, 5, 6):
        for w, c in bch_lyndon_terms(max_weight):
            d = c.denominator
            f = 2
            while f <= d:
                if d % f == 0:
                    assert f <= len(w)
                    while d % f == 0:
                        d //= f
                f += 1


def test_lyndon_terms_match_the_peeling_oracle():
    # the integer-step solve and the field peeling give the same terms,
    # Fractions and order included
    for max_weight in range(1, 9):
        got = bch_lyndon_terms(max_weight)
        want = bch_lyndon_terms_by_peeling(max_weight)
        assert got == want
        assert all(type(c) is Fraction for _, c in got)
