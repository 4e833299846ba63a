"""Root lattice, Weyl action and the real/imaginary root decision.

Vectors live in the free abelian group on the GCM labels.  A simple
reflection acts by s.alpha = alpha - (sum_t n_t A[s][t]) alpha_s.  Real roots
form the Weyl orbit of the simple roots; positive imaginary roots are the
Weyl orbit of the fundamental cone (all pairings <= 0, connected support).
The decision procedure descends by height and is certificate-producing: a
real verdict carries a word replaying the vector from a simple root.
"""

from dataclasses import dataclass

from .errors import UnknownLabel, ZeroVector

REAL = "real"
IMAGINARY = "imaginary"
NOT_ROOT = "not_root"


@dataclass(frozen=True)
class RootVector:
    """Finitely supported integer vector over the label set.

    ``items`` is a sorted tuple of (label, coefficient) pairs with zero
    coefficients dropped, so equal vectors hash equal.
    """

    items: tuple

    @staticmethod
    def from_coords(coords):
        return RootVector(tuple(sorted((s, int(n)) for s, n in coords.items() if n != 0)))

    def coeff(self, s):
        for t, n in self.items:
            if t == s:
                return n
        return 0

    def is_zero(self):
        return not self.items

    def is_positive(self):
        return bool(self.items) and all(n > 0 for _, n in self.items)

    def is_negative(self):
        return bool(self.items) and all(n < 0 for _, n in self.items)

    def support(self):
        return [s for s, _ in self.items]

    def __neg__(self):
        return RootVector(tuple((s, -n) for s, n in self.items))

    def __add__(self, other):
        coords = dict(self.items)
        for s, n in other.items:
            coords[s] = coords.get(s, 0) + n
        return RootVector.from_coords(coords)

    def __sub__(self, other):
        return self + (-other)

    def dense(self, labels):
        return [self.coeff(s) for s in labels]


def simple_root(s):
    return RootVector(((s, 1),))


def height(alpha):
    """Sum of the coordinates."""
    return sum(n for _, n in alpha.items)


def pairing(gcm, s, alpha):
    """sum_t n_t A[s][t]: the coefficient stripped off alpha_s by the reflection at s."""
    return sum(n * gcm.a(s, t) for t, n in alpha.items)


def simple_reflection(gcm, s, alpha):
    """alpha - (sum_t n_t A[s][t]) alpha_s.  Only the coordinate at s changes."""
    if s not in gcm.labels:
        raise UnknownLabel(f"unknown label {s!r}")
    p = pairing(gcm, s, alpha)
    if p == 0:
        return alpha
    coords = dict(alpha.items)
    coords[s] = coords.get(s, 0) - p
    return RootVector.from_coords(coords)


def weyl_apply(gcm, word, alpha):
    """Apply a word of simple reflections, rightmost letter first."""
    for s in reversed(tuple(word)):
        alpha = simple_reflection(gcm, s, alpha)
    return alpha


@dataclass(frozen=True)
class RootStatus:
    """Verdict of the root decision, with a witness for real roots.

    For tag == REAL the witness satisfies weyl_apply(gcm, word, alpha_simple)
    == alpha.  Other tags carry no witness.
    """

    tag: str
    word: tuple = None
    simple: object = None


def support_is_connected(gcm, alpha):
    supp = set(alpha.support())
    if not supp:
        return False
    start = next(iter(supp))
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for t in gcm.neighbors(s):
            if t in supp and t not in seen:
                seen.add(t)
                stack.append(t)
    return seen == supp


def root_status(gcm, alpha):
    """Decide real / imaginary / not-a-root by height descent.

    Positive case: repeatedly reflect at the lowest label with positive
    pairing (each step strictly lowers height).  Reaching a simple root gives
    a real verdict with the reflection word as witness; leaving the positive
    cone proves non-root; a local minimum is imaginary exactly when its
    support is connected.  Negative vectors reduce to their negation, with
    the witness extended by one letter (w(alpha_s) = -alpha implies
    (w,s)(alpha_s) = alpha).
    """
    if alpha.is_zero():
        raise ZeroVector("the zero vector is not a root candidate")
    if alpha.is_negative():
        st = root_status(gcm, -alpha)
        if st.tag == REAL:
            return RootStatus(tag=REAL, word=st.word + (st.simple,), simple=st.simple)
        return RootStatus(tag=st.tag)
    if not alpha.is_positive():
        return RootStatus(tag=NOT_ROOT)

    word = []
    current = alpha
    while True:
        if len(current.items) == 1 and current.items[0][1] == 1:
            return RootStatus(tag=REAL, word=tuple(word), simple=current.items[0][0])
        drop = None
        for s in gcm.labels:
            if current.coeff(s) != 0 and pairing(gcm, s, current) > 0:
                drop = s
                break
        if drop is None:
            if support_is_connected(gcm, current):
                return RootStatus(tag=IMAGINARY)
            return RootStatus(tag=NOT_ROOT)
        current = simple_reflection(gcm, drop, current)
        if not current.is_positive():
            # a positive root other than alpha_s stays positive under s
            return RootStatus(tag=NOT_ROOT)
        word.append(drop)


def positive_real_roots_up_to_height(gcm, bound):
    """All positive real roots of height <= bound.

    Breadth-first closure of the simple roots under simple reflections,
    pruned at |height| > bound.  Complete because a positive real root
    descends to a simple root through positive roots of strictly smaller
    height, so the reversed path lies inside the pruned region.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    seen = {simple_root(s) for s in gcm.labels}
    frontier = list(seen)
    while frontier:
        nxt = []
        for alpha in frontier:
            for s in gcm.labels:
                beta = simple_reflection(gcm, s, alpha)
                if beta not in seen and abs(height(beta)) <= bound:
                    seen.add(beta)
                    nxt.append(beta)
        frontier = nxt
    return {alpha for alpha in seen if alpha.is_positive()}


def positive_roots_up_to_height(gcm, bound):
    """All positive roots of height <= bound, as (vector, tag) pairs.

    Grown height by height from the simple roots, keeping each sum of a root
    and a simple root that root_status tags as a root.  Complete because n+
    is generated by the e_s, so every positive root of height h > 1 is a
    positive root of height h - 1 plus a simple root (Kac,
    Infinite-dimensional Lie algebras, ch. 1).
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    simples = [simple_root(s) for s in gcm.labels]
    layer = {(alpha, REAL) for alpha in simples}
    out = set(layer)
    for _ in range(bound - 1):
        sums = {alpha + beta for alpha, _ in layer for beta in simples}
        tagged = ((gamma, root_status(gcm, gamma).tag) for gamma in sums)
        layer = {(gamma, tag) for gamma, tag in tagged if tag != NOT_ROOT}
        out |= layer
    return out


def roots_to_json(gcm, tagged_roots):
    """JSON-ready dump: [{"coords", "height", "status"}], sorted by (height, coords)."""
    rows = [
        {"coords": alpha.dense(gcm.labels), "height": height(alpha), "status": tag}
        for alpha, tag in tagged_roots
    ]
    rows.sort(key=lambda r: (r["height"], r["coords"]))
    return rows
