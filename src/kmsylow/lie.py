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
from itertools import product

from .errors import CharacteristicTooSmall, HeightExceedsCutoff
from .fields import QQ, reduce_against, rref
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
    """All Lyndon words of the given length over letters 0..n_letters-1."""
    return [w for w in product(range(n_letters), repeat=length) if is_lyndon(w)]


def standard_factorization(word):
    """Split a Lyndon word of length >= 2 as u v with v the longest proper
    Lyndon suffix; then the bracketing of word is [bracketing(u), bracketing(v)]."""
    for i in range(1, len(word)):
        if is_lyndon(word[i:]):
            return word[:i], word[i:]
    raise AssertionError(f"not a Lyndon word: {word}")


_RHO_CACHE = {}


def rho_expansion(word):
    """Associative expansion (dict word -> int) of the standard bracketing.

    The input word appears with coefficient 1 and every other term is
    lexicographically greater, which makes the change of basis triangular.
    """
    if word in _RHO_CACHE:
        return _RHO_CACHE[word]
    if len(word) == 1:
        out = {word: 1}
    else:
        u, v = standard_factorization(word)
        out = poly_commutator(rho_expansion(u), rho_expansion(v))
    _RHO_CACHE[word] = out
    return out


def poly_commutator(f, g, fld=None):
    """[f, g] = fg - gf on associative word polynomials.

    Integer coefficients by default; pass a field to keep coefficients
    normalized field scalars (required for prime fields, whose scalars are
    plain ints and would otherwise leave residues outside 0..p-1).
    """
    out = {}
    if fld is None:
        for wf, cf in f.items():
            for wg, cg in g.items():
                w = wf + wg
                out[w] = out.get(w, 0) + cf * cg
                w = wg + wf
                out[w] = out.get(w, 0) - cf * cg
        return {w: c for w, c in out.items() if c != 0}
    for wf, cf in f.items():
        for wg, cg in g.items():
            prod = fld.mul(cf, cg)
            w = wf + wg
            out[w] = fld.add(out.get(w, fld.zero), prod)
            w = wg + wf
            out[w] = fld.sub(out.get(w, fld.zero), prod)
    return {w: c for w, c in out.items() if c != fld.zero}


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


def _degree_key(combo):
    return tuple(combo)


def build_positive_part(gcm, cutoff, fld=QQ):
    """Construct the truncated positive part over Q or a prime field.

    Processes multidegrees in height order.  At each degree the ideal
    component is spanned by the Serre elements of that degree together with
    [e_s, u] for u spanning the ideal at degree - alpha_s; a rank-filtered
    spanning list keeps the linear algebra small.  The quotient basis is the
    set of Lyndon words off the ideal's pivot coordinates.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if fld.char and fld.char <= cutoff:
        raise CharacteristicTooSmall(
            f"characteristic {fld.char} must exceed the cutoff {cutoff}"
        )
    n = gcm.size
    labels = gcm.labels

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
                serre_by_degree.setdefault(_degree_key(degree), []).append(
                    serre_element(gcm, sp, tp, a_st)
                )

    # per-degree: (word_list, word_index, rref rows, pivots, independent ideal polys)
    ideal = {}
    basis = []
    basis_info = {}  # degree key -> (word_list, pivots set, coordinate->index map)

    for h in range(1, cutoff + 1):
        for combo in product(range(h + 1), repeat=n):
            if sum(combo) != h:
                continue
            key = _degree_key(combo)
            words = sorted(
                w
                for w in lyndon_words(n, h)
                if tuple(w.count(i) for i in range(n)) == key
            )
            word_index = {w: i for i, w in enumerate(words)}
            candidates = list(serre_by_degree.get(key, ()))
            for sp in range(n):
                if combo[sp] == 0:
                    continue
                lower = list(combo)
                lower[sp] -= 1
                if sum(lower) == 0:
                    continue
                prev = ideal.get(_degree_key(lower))
                if prev is None:
                    continue
                e_s = {(sp,): 1}
                for u in prev[4]:
                    candidates.append(poly_commutator(e_s, u))
            rows = []
            pivots = []
            kept = []
            for poly in candidates:
                if not poly:
                    continue
                poly_f = {w: fld.from_int(c) for w, c in poly.items()}
                vec = to_lyndon_coordinates(poly_f, words, word_index, fld)
                vec = reduce_against(vec, rows, pivots, fld)
                if all(c == fld.zero for c in vec):
                    continue
                rows_new, pivots_new = rref(rows + [vec], fld)
                rows, pivots = rows_new, pivots_new
                kept.append(poly)
            ideal[key] = (words, word_index, rows, pivots, kept)
            coord_to_index = {}
            for i, w in enumerate(words):
                if i not in pivots:
                    b = BasisElement(
                        index=len(basis),
                        root=RootVector.from_coords(
                            {labels[pos]: c for pos, c in enumerate(combo)}
                        ),
                        word=w,
                    )
                    basis.append(b)
                    coord_to_index[i] = b.index
            basis_info[key] = (words, set(pivots), coord_to_index)

    # structure constants on basis pairs with height sum <= cutoff
    structure = {}
    heights = [sum(n_ for _, n_ in b.root.items) for b in basis]
    degrees = {}
    for b in basis:
        d = [0] * n
        for s, c in b.root.items:
            d[gcm.position(s)] = c
        degrees[b.index] = _degree_key(d)
    expansions = {
        b.index: {w: fld.from_int(c) for w, c in rho_expansion(b.word).items()}
        for b in basis
    }
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if heights[i] + heights[j] > cutoff:
                continue
            key = _degree_key(
                tuple(a + b for a, b in zip(degrees[i], degrees[j]))
            )
            words, word_index, rows, pivots, _ = ideal[key]
            comm = poly_commutator(expansions[i], expansions[j], fld)
            vec = to_lyndon_coordinates(comm, words, word_index, fld)
            vec = reduce_against(vec, rows, pivots, fld)
            coord_to_index = basis_info[key][2]
            pairs = tuple(
                (coord_to_index[pos], c)
                for pos, c in enumerate(vec)
                if c != fld.zero
            )
            structure[(i, j)] = pairs

    return GradedLieAlgebra(gcm, cutoff, fld, basis, structure)

