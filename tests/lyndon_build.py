"""Test helper: the truncated positive part built on the Lyndon words of the
free Lie algebra.

The free Lie algebra on the generators e_s is realized inside the free
associative algebra: words are tuples of label positions, Lie elements are
dicts word -> integer, and the Lyndon words of each multidegree index a
basis through their standard bracketings.  The Serre ideal is generated by
the elements (ad e_s)^(1 - A[s][t])(e_t); at each multidegree it is spanned
by the Serre elements of that degree and [e_s, u] for u spanning it one
generator lower, and it is eliminated in Lyndon coordinates.  So the cost
follows the free Lie algebra on rank-many letters, not the quotient, and
the library's graded build shares nothing with this one but the field
arithmetic and the result type.
"""

from kmsylow.errors import CharacteristicTooSmall
from kmsylow.fields import QQ, echelon_insert, reduce_against
from kmsylow.lie import (
    BasisElement,
    GradedLieAlgebra,
    lyndon_coordinates,
    lyndon_words,
    rho_expansion,
)
from kmsylow.roots import RootVector


def poly_commutator(f, g):
    """[f, g] = fg - gf on associative word polynomials with integer
    coefficients."""
    out = {}
    for wf, cf in f.items():
        for wg, cg in g.items():
            w = wf + wg
            out[w] = out.get(w, 0) + cf * cg
            w = wg + wf
            out[w] = out.get(w, 0) - cf * cg
    return {w: c for w, c in out.items() if c != 0}


def serre_element(s_pos, t_pos, a_st):
    """(ad e_s)^(1 - A[s][t]) applied to e_t, as a word polynomial."""
    e_s = {(s_pos,): 1}
    out = {(t_pos,): 1}
    for _ in range(1 - a_st):
        out = poly_commutator(e_s, out)
    return out


def lyndon_build(gcm, cutoff, fld=QQ):
    """The truncated positive part, with basis the Lyndon words off the
    ideal's pivot coordinates, in height order and then multidegree order;
    a basis element's word is its Lyndon word."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if fld.char and fld.char <= cutoff:
        raise CharacteristicTooSmall(
            f"characteristic {fld.char} must exceed the cutoff {cutoff}"
        )
    n = gcm.size
    labels = gcm.labels

    def coordinates(poly, words):
        return [fld.from_int(c) for c in lyndon_coordinates(poly, words)]

    serre_by_degree = {}
    for sp in range(n):
        for tp in range(n):
            if sp == tp:
                continue
            a_st = gcm.rows[sp][tp]
            degree = [0] * n
            degree[sp] = 1 - a_st
            degree[tp] += 1
            if sum(degree) <= cutoff:
                serre_by_degree.setdefault(tuple(degree), []).append(
                    serre_element(sp, tp, a_st)
                )

    # per degree: (sorted Lyndon words, rref rows, pivots, independent ideal polys)
    ideal = {}
    basis = []
    degrees = []
    coord_to_index = {}  # degree -> {non-pivot coordinate: basis index}

    for h in range(1, cutoff + 1):
        words_by_degree = {}
        for w in lyndon_words(n, h):
            key = tuple(w.count(i) for i in range(n))
            words_by_degree.setdefault(key, []).append(w)
        for key in sorted(words_by_degree):
            words = words_by_degree[key]
            candidates = list(serre_by_degree.get(key, ()))
            for sp in range(n):
                lower = list(key)
                lower[sp] -= 1
                prev = ideal.get(tuple(lower))
                if prev is not None:
                    e_s = {(sp,): 1}
                    candidates += [poly_commutator(e_s, u) for u in prev[3]]
            rows, pivots, kept = [], [], []
            for poly in candidates:
                if echelon_insert(rows, pivots, coordinates(poly, words), fld):
                    kept.append(poly)
            ideal[key] = (words, rows, pivots, kept)
            root = RootVector.from_coords({labels[pos]: c for pos, c in enumerate(key)})
            coord_to_index[key] = {}
            for i, w in enumerate(words):
                if i not in pivots:
                    coord_to_index[key][i] = len(basis)
                    basis.append(BasisElement(index=len(basis), root=root, word=w))
                    degrees.append(key)

    # structure constants on basis pairs with height sum <= cutoff
    structure = {}
    heights = [sum(d) for d in degrees]
    expansions = [rho_expansion(b.word) for b in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if heights[i] + heights[j] > cutoff:
                continue
            key = tuple(a + b for a, b in zip(degrees[i], degrees[j]))
            words, rows, pivots, _ = ideal[key]
            comm = poly_commutator(expansions[i], expansions[j])
            vec = reduce_against(coordinates(comm, words), rows, pivots, fld)
            structure[(i, j)] = tuple(
                (coord_to_index[key][pos], c)
                for pos, c in enumerate(vec)
                if c != fld.zero
            )

    return GradedLieAlgebra(gcm, cutoff, fld, basis, structure)
