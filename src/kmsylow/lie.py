"""Height-truncated positive part of the presented Lie algebra.

The free Lie algebra on the generators e_s is realized inside the free
associative algebra: words are tuples of label positions, Lie elements are
dicts word -> scalar, and the Lyndon words of each multidegree index a basis
through their standard bracketings.  The defining ideal is generated by the
elements (ad e_s)^(1 - A[s][t])(e_t); since each generator is homogeneous,
the ideal meets every multidegree in a subspace computable by linear algebra,
and truncating at a height cutoff loses nothing below the cutoff.

Basis elements of the quotient are labeled by their root vector, so root
multiplicities are read off as dimension counts.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import CharacteristicTooSmall, HeightExceedsCutoff
from .fields import QQ, echelon_insert, reduce_against
from .roots import RootVector


def is_lyndon(word):
    """True iff the word is strictly smaller than all its proper rotations."""
    n = len(word)
    if n == 0:
        return False
    for k in range(1, n):
        if word[k:] + word[:k] <= word:
            return False
    return True


def lyndon_words(n_letters, length):
    """All Lyndon words of the given length over letters 0..n_letters-1, in
    lexicographic order.

    Duval's algorithm (J. Algorithms 4, 1983) steps through the Lyndon words
    of length at most ``length`` in lexicographic order: repeat the current
    word up to full length, drop trailing maximal letters, increment the
    last letter.
    """
    out = []
    word = [-1] if n_letters > 0 and length > 0 else []
    while word:
        word[-1] += 1
        if len(word) == length:
            out.append(tuple(word))
        period = len(word)
        while len(word) < length:
            word.append(word[-period])
        while word and word[-1] == n_letters - 1:
            word.pop()
    return out


def standard_factorization(word):
    """Split a Lyndon word of length >= 2 as u v with v the longest proper
    Lyndon suffix; then the bracketing of word is [bracketing(u), bracketing(v)]."""
    for i in range(1, len(word)):
        if is_lyndon(word[i:]):
            return word[:i], word[i:]
    raise AssertionError(f"not a Lyndon word: {word}")


@lru_cache(maxsize=None)
def rho_expansion(word):
    """Associative expansion (dict word -> int) of the standard bracketing.

    The input word appears with coefficient 1 and every other term is
    lexicographically greater, which makes the change of basis triangular.
    """
    if len(word) == 1:
        return {word: 1}
    u, v = standard_factorization(word)
    return poly_commutator(rho_expansion(u), rho_expansion(v))


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


def lyndon_coordinates(poly, words):
    """Coordinates of a Lie element on the sorted Lyndon words of its
    length or multidegree, exact on int and Fraction coefficients.

    Solves the unitriangular system poly = sum_w c_w rho_expansion(w) by
    visiting the Lyndon words in increasing order; each step subtracts a
    found coefficient times an integer expansion, so nothing is rounded.
    Whatever is left over must vanish, or the input was not a Lie element.
    """
    coeffs = dict(poly)
    out = []
    for w in words:
        c = coeffs.pop(w, 0)
        out.append(c)
        if c:
            for u, k in rho_expansion(w).items():
                if u != w:
                    coeffs[u] = coeffs.get(u, 0) - c * k
    if any(coeffs.values()):
        raise AssertionError("input was not a Lie element")
    return out


@dataclass(frozen=True)
class BasisElement:
    index: int
    root: RootVector
    word: tuple  # Lyndon word over label positions


class GradedLieAlgebra:
    """Quotient of the free Lie algebra on {e_s} by the ideal of the
    elements (ad e_s)^(1-A[s][t])(e_t), truncated above the height cutoff.

    ``basis`` is ordered by height then construction order; ``structure``
    maps (i, j) with i < j and compatible heights to a tuple of
    (k, coefficient) pairs.  Brackets landing above the cutoff are zero by
    contract.
    """

    def __init__(self, gcm, cutoff, fld, basis, structure):
        self.gcm = gcm
        self.cutoff = cutoff
        self.field = fld
        self.basis = basis
        self.structure = structure
        self.by_degree = {}
        self.by_height = {h: [] for h in range(1, cutoff + 1)}
        for b in basis:
            self.by_degree.setdefault(b.root, []).append(b.index)
            self.by_height[sum(n for _, n in b.root.items)].append(b.index)

    @property
    def dimension(self):
        return len(self.basis)

    def dimensions_per_height(self):
        return [len(self.by_height[h]) for h in range(1, self.cutoff + 1)]

    def generator_index(self, s):
        self.gcm.position(s)  # raises UnknownLabel for bad input
        return self.by_degree[RootVector(((s, 1),))][0]

    def height_of(self, index):
        return sum(n for _, n in self.basis[index].root.items)

    def bracket_basis(self, i, j):
        """[b_i, b_j] as a sparse dict index -> coefficient."""
        if i == j:
            return {}
        sign = None
        if i > j:
            i, j = j, i
            sign = True
        pairs = self.structure.get((i, j), ())
        fld = self.field
        if sign:
            return {k: fld.neg(c) for k, c in pairs}
        return dict(pairs)


def root_multiplicity(algebra, alpha):
    """Number of basis elements of degree alpha; 0 for non-roots."""
    ht = sum(n for _, n in alpha.items)
    if ht > algebra.cutoff:
        raise HeightExceedsCutoff(f"height {ht} exceeds cutoff {algebra.cutoff}")
    return len(algebra.by_degree.get(alpha, ()))


def bracket(algebra, x, y):
    """Bilinear extension of the structure constants to sparse coefficient
    vectors (dicts index -> scalar); components above the cutoff vanish."""
    fld = algebra.field
    out = {}
    for i, a in x.items():
        if a == fld.zero:
            continue
        for j, b in y.items():
            if b == fld.zero:
                continue
            ab = fld.mul(a, b)
            for k, c in algebra.bracket_basis(i, j).items():
                v = fld.add(out.get(k, fld.zero), fld.mul(ab, c))
                if v == fld.zero:
                    out.pop(k, None)
                else:
                    out[k] = v
    return out


def serre_element(gcm, s_pos, t_pos, a_st):
    """(ad e_s)^(1 - A[s][t]) applied to e_t, as a word polynomial."""
    e_s = {(s_pos,): 1}
    out = {(t_pos,): 1}
    for _ in range(1 - a_st):
        out = poly_commutator(e_s, out)
    return out


def build_positive_part(gcm, cutoff, fld=QQ):
    """Construct the truncated positive part over Q or F_q.

    Processes multidegrees in height order.  At each degree the ideal
    component is spanned by the Serre elements of that degree together with
    [e_s, u] for u spanning the ideal at degree - alpha_s; a rank-filtered
    spanning list keeps the linear algebra small.  The quotient basis is the
    set of Lyndon words off the ideal's pivot coordinates.  Every element
    involved has integer coefficients, so its Lyndon coordinates are
    integers, mapped into the field once.
    """
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
                    serre_element(gcm, sp, tp, a_st)
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
