"""Exact Baker-Campbell-Hausdorff series, truncated by total weight.

z = log(exp x exp y) is computed in the free associative algebra on two
letters over the rationals, words above the weight cutoff dropped, then
rewritten into the Lyndon bracket basis.  All coefficients are exact
Fractions; a denominator of a weight-w term has prime factors <= w, so the
series reduces mod p whenever p exceeds the truncation weight.
"""

from fractions import Fraction
from functools import lru_cache

from .fields import QQ, add_scaled
from .lie import lyndon_coordinates, lyndon_words

X = (0,)
Y = (1,)


def _mul_truncated(f, g, max_len):
    out = {}
    for wf, cf in f.items():
        room = max_len - len(wf)
        shifted = {wf + wg: cg for wg, cg in g.items() if len(wg) <= room}
        add_scaled(out, cf, shifted, QQ)
    return out


def _exp_letter(letter, max_len):
    out = {(): Fraction(1)}
    fact = 1
    for k in range(1, max_len + 1):
        fact *= k
        out[letter * k] = Fraction(1, fact)
    return out


def _log_one_plus(u, max_len):
    out = {}
    power = {(): Fraction(1)}
    for k in range(1, max_len + 1):
        power = _mul_truncated(power, u, max_len)
        add_scaled(out, Fraction((-1) ** (k + 1), k), power, QQ)
    return out


@lru_cache(maxsize=None)
def bch_lyndon_terms(max_weight):
    """The series as ((lyndon word over {0,1}, Fraction), ...) up to max_weight.

    Each word stands for its standard bracketing with x = letter 0 and
    y = letter 1; the weight-1 terms are x and y themselves.
    """
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    prod = _mul_truncated(_exp_letter(X, max_weight), _exp_letter(Y, max_weight), max_weight)
    u = {w: c for w, c in prod.items() if w}
    z = _log_one_plus(u, max_weight)
    terms = []
    for length in range(1, max_weight + 1):
        words = lyndon_words(2, length)
        component = {w: c for w, c in z.items() if len(w) == length}
        vec = lyndon_coordinates(component, words)
        for w, c in zip(words, vec):
            if c:
                terms.append((w, c))
    return tuple(terms)
