"""Test helper: Lyndon coordinates by peeling off minimal words, over any
field, and the BCH series rewritten through them.

The library solves the same unitriangular system by visiting the Lyndon
words in order (``lie.lyndon_coordinates``); this way instead finds the
smallest remaining word at every step and works in the field throughout,
so the two share only ``rho_expansion``.
"""

from kmsylow.bch import X, Y, _exp_letter, _log_one_plus, _mul_truncated
from kmsylow.fields import QQ
from kmsylow.lie import lyndon_words, rho_expansion


def to_lyndon_coordinates(poly, word_list, word_index, fld):
    """Coordinates of a Lie element on the Lyndon basis of its multidegree.

    Peels off the lexicographically smallest remaining word, which must be
    Lyndon and appears in exactly one standard bracketing.  A non-Lyndon
    minimal word means the input was not a Lie element.
    """
    coeffs = dict(poly)
    out = [fld.zero] * len(word_list)
    while coeffs:
        w = min(coeffs)
        c = coeffs.pop(w)
        if c == fld.zero:
            continue
        if w not in word_index:
            raise AssertionError(f"minimal word {w} is not Lyndon; input was not a Lie element")
        out[word_index[w]] = fld.add(out[word_index[w]], c)
        for u, k in rho_expansion(w).items():
            if u == w:
                continue
            coeffs[u] = fld.sub(coeffs.get(u, fld.zero), fld.mul(c, fld.from_int(k)))
            if coeffs[u] == fld.zero:
                del coeffs[u]
    return out


def bch_lyndon_terms_by_peeling(max_weight):
    """bch_lyndon_terms(max_weight), each weight's component of
    log(exp x exp y) rewritten by to_lyndon_coordinates over Q."""
    prod = _mul_truncated(_exp_letter(X, max_weight), _exp_letter(Y, max_weight), max_weight)
    z = _log_one_plus({w: c for w, c in prod.items() if w}, max_weight)
    terms = []
    for length in range(1, max_weight + 1):
        words = lyndon_words(2, length)
        index = {w: i for i, w in enumerate(words)}
        component = {w: c for w, c in z.items() if len(w) == length}
        vec = to_lyndon_coordinates(component, words, index, QQ)
        terms += [(w, c) for w, c in zip(words, vec) if c]
    return tuple(terms)
