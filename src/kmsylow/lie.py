"""Height-truncated positive part of the presented Lie algebra.

n+ is the Lie algebra on generators e_s with the Serre relations
(ad e_s)^(1 - A[s][t])(e_t) = 0, truncated above a height cutoff.  It is
built degree by degree inside the quotient itself, as the graded nilpotent
quotient algorithm does (G. Havas, M. F. Newman and M. R. Vaughan-Lee,
J. Symbolic Comput. 9, 1990; C. Schneider, DMTCS 1, 1997), so the cost
follows the dimension of the truncation, not that of the free Lie algebra.
Every basis element above height 1 is defined as [b, e_s] for a basis
element b one generator lower, so it is the left-normed bracket of the
generators along its word.

Basis elements of the quotient are labeled by their root vector, so root
multiplicities are read off as dimension counts.  Elements are sparse dicts
index -> scalar, summed in place by fields.add_scaled; the build and
``bracket`` read [b_i, b_j] through one antisymmetric structure lookup.
The Lyndon-word helpers below serve the BCH series (bch, unipotent), not
the build.
"""

from dataclasses import dataclass
from functools import lru_cache

from .errors import CharacteristicTooSmall
from .fields import QQ, add_scaled, echelon_insert, reduce_against
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
    out = {}
    for wf, cf in rho_expansion(u).items():
        for wg, cg in rho_expansion(v).items():
            out[wf + wg] = out.get(wf + wg, 0) + cf * cg
            out[wg + wf] = out.get(wg + wf, 0) - cf * cg
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
    """A basis element: its index, its root and the left-normed word of its
    definition chain, label positions (s_1, ..., s_k) with the element equal
    to [...[e_s1, e_s2], ..., e_sk]."""

    index: int
    root: RootVector
    word: tuple


class GradedLieAlgebra:
    """Quotient of the free Lie algebra on {e_s} by the ideal of the
    elements (ad e_s)^(1-A[s][t])(e_t), truncated above the height cutoff.

    ``basis`` is ordered by height, then multidegree, then word, and a
    basis element's ``word`` is the left-normed word of its definition
    chain (BasisElement).  ``structure`` maps (i, j) with i < j and
    compatible heights to a tuple of (k, coefficient) pairs.  Brackets
    landing above the cutoff are zero by contract.
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

    def height_of(self, index):
        return sum(n for _, n in self.basis[index].root.items)


def _basis_bracket(structure, i, j, fld):
    """[b_i, b_j] as a sparse dict index -> coefficient, read from the
    structure constants on pairs i < j; pairs not listed bracket to zero."""
    if i < j:
        return dict(structure.get((i, j), ()))
    if i > j:
        return {k: fld.neg(c) for k, c in structure.get((j, i), ())}
    return {}


def bracket(algebra, x, y):
    """Bilinear extension of the structure constants to sparse coefficient
    vectors (dicts index -> scalar); components above the cutoff vanish."""
    fld, structure = algebra.field, algebra.structure
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            if a != fld.zero and b != fld.zero:
                add_scaled(out, fld.mul(a, b), _basis_bracket(structure, i, j, fld), fld)
    return out


def build_positive_part(gcm, cutoff, fld=QQ):
    """Construct the truncated positive part over Q or F_q.

    Height 1 is spanned by the generators.  Each multidegree d above it has
    one symbol t(b, s) = [b, e_s] per basis element b of degree d - alpha_s.
    The bracket B(x, y) of basis elements of degrees summing to d is written
    over the symbols by recursion on y's definition: t(x, s) when y = e_s,
    else [[x, y'], e_s] - B([x, e_s], y') when y = [y', e_s], the inner
    brackets read from the structure constants already built.  Relations:
    B(x, y) + B(y, x) and B(x, x); the Jacobi sum on each basis triple
    x < y < z; and each Serre element of degree d, its inner part from the
    structure constants and its last step over the symbols.  The symbols
    left independent modulo the relations, earliest word first, are the new
    basis, and B reduced against the relations gives the structure
    constants.

    This is exact.  The result is a Lie algebra generated by the e_s in
    which the Serre elements vanish, so it is a quotient of F/(I + F_{>H}),
    F free on the e_s and I the Serre ideal: degree d is no larger than
    (F/I)_d.  And if the two agree below d, the symbols map onto (F/I)_d,
    which the brackets [u, e_s] span, sending every relation to 0: degree d
    is no smaller either.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if fld.char and fld.char <= cutoff:
        raise CharacteristicTooSmall(
            f"characteristic {fld.char} must exceed the cutoff {cutoff}"
        )
    n = gcm.size
    labels = gcm.labels
    zero, one, neg = fld.zero, fld.one, fld.neg
    units = [tuple(int(i == s) for i in range(n)) for s in range(n)]

    def add(a, b, sign=1):
        return tuple(x + sign * y for x, y in zip(a, b))

    basis, degrees, heights = [], [], []
    definition = []  # (b', s) with b = [b', e_s], or None for a generator
    by_key = {}  # multidegree -> basis indices
    by_height = {h: [] for h in range(1, cutoff + 1)}
    structure = {}

    def append(key, word, defined_by):
        index = len(basis)
        root = RootVector.from_coords({labels[i]: c for i, c in enumerate(key)})
        basis.append(BasisElement(index=index, root=root, word=word))
        degrees.append(key)
        heights.append(sum(key))
        definition.append(defined_by)
        by_key.setdefault(key, []).append(index)
        by_height[sum(key)].append(index)

    for key in sorted(units):
        append(key, (key.index(1),), None)
    gen = [by_key[key][0] for key in units]

    serre = {}  # multidegree -> (s, t, -A[s][t])
    for s in range(n):
        for t in range(n):
            a = gcm.rows[s][t]
            key = add(units[t], tuple((1 - a) * c for c in units[s]))
            if s != t and sum(key) <= cutoff:
                serre.setdefault(key, []).append((s, t, -a))

    def table(i, j):
        return _basis_bracket(structure, i, j, fld)

    for h in range(2, cutoff + 1):
        # ordered basis pairs and increasing basis triples of height h
        pairs, triples = {}, {}
        below = range(len(basis))
        for x in below:
            for y in by_height[h - heights[x]]:
                pairs.setdefault(add(degrees[x], degrees[y]), []).append((x, y))
            for y in range(x + 1, len(basis)):
                for z in by_height.get(h - heights[x] - heights[y], ()):
                    if z > y:
                        key = add(add(degrees[x], degrees[y]), degrees[z])
                        triples.setdefault(key, []).append((x, y, z))
        for key in sorted(pairs):
            symbols = sorted(
                (basis[b].word + (s,), b, s)
                for s in range(n)
                for b in by_key.get(add(key, units[s], -1), ())
            )
            m = len(symbols)
            column = {(b, s): i for i, (_, b, s) in enumerate(symbols)}
            memo = {}

            def over_symbols(x, y):
                """B(x, y), a sparse vector over the symbols."""
                got = memo.get((x, y))
                if got is None:
                    if definition[y] is None:
                        got = {column[(x, basis[y].word[0])]: one}
                    else:
                        y1, s = definition[y]
                        got = {column[(k, s)]: c for k, c in table(x, y1).items()}
                        for k, c in table(x, gen[s]).items():
                            add_scaled(got, neg(c), over_symbols(k, y1), fld)
                    memo[(x, y)] = got
                return got

            def dense(vec):
                # the symbols reversed, so that the pivots fall on the
                # latest symbols and the earliest stay independent
                out = [zero] * m
                for i, c in vec.items():
                    out[m - 1 - i] = c
                return out

            rows, pivots = [], []

            def impose(relation):
                if relation and len(pivots) < m:
                    echelon_insert(rows, pivots, dense(relation), fld)

            for x, y in pairs[key]:
                if x <= y:
                    relation = dict(over_symbols(x, y))
                    if x < y:
                        add_scaled(relation, one, over_symbols(y, x), fld)
                    impose(relation)
            for s, t, k in serre.get(key, ()):
                inner = {gen[t]: one}
                for _ in range(k):
                    step = {}
                    for j, c in inner.items():
                        add_scaled(step, c, table(gen[s], j), fld)
                    inner = step
                impose({column[(j, s)]: neg(c) for j, c in inner.items()})
            for x, y, z in triples.get(key, ()):
                relation = {}
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    for k, coeff in table(a, b).items():
                        add_scaled(relation, coeff, over_symbols(k, c), fld)
                impose(relation)

            new = {}  # symbol -> basis index, for the symbols left independent
            killed = {m - 1 - p for p in pivots}
            for i, (word, b, s) in enumerate(symbols):
                if i not in killed:
                    new[i] = len(basis)
                    append(key, word, (b, s))
            for x, y in pairs[key]:
                if x < y:
                    vec = reduce_against(dense(over_symbols(x, y)), rows, pivots, fld)
                    structure[(x, y)] = tuple(
                        (new[m - 1 - p], vec[p])
                        for p in range(m - 1, -1, -1)
                        if vec[p] != zero
                    )

    return GradedLieAlgebra(gcm, cutoff, fld, basis, structure)
