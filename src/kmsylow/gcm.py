"""Generalized Cartan matrices: validation, block decomposition, type classification.

A generalized Cartan matrix (GCM) is an integer matrix A indexed by a finite
label set with A[s][s] = 2, A[s][t] <= 0 off the diagonal, and symmetric
vanishing (A[s][t] = 0 iff A[t][s] = 0).  Indecomposable GCMs fall into the
finite / affine / indefinite trichotomy, decided here by exact principal-minor
computations (no floating point).
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    AsymmetricZero,
    DiagonalNotTwo,
    HypothesisViolated,
    PositiveOffDiagonal,
    UnknownLabel,
)

FINITE = "finite"
AFFINE = "affine"
INDEFINITE = "indefinite"


@dataclass(frozen=True)
class GeneralizedCartanMatrix:
    """Validated GCM over an ordered label set.

    ``labels`` fixes the coordinate order used everywhere downstream (root
    vectors, Lie algebra bases, group coordinates).
    """

    labels: tuple
    rows: tuple  # tuple of tuples of ints, aligned with labels

    @property
    def size(self):
        return len(self.labels)

    def position(self, s):
        try:
            return self.labels.index(s)
        except ValueError:
            raise UnknownLabel(f"unknown label {s!r}") from None

    def a(self, s, t):
        """Entry A[s][t] by label."""
        return self.rows[self.position(s)][self.position(t)]

    def neighbors(self, s):
        """Labels t != s with A[s][t] != 0 (edges of the diagram)."""
        i = self.position(s)
        return [t for j, t in enumerate(self.labels) if j != i and self.rows[i][j] != 0]


def validate_gcm(rows, labels=None):
    """Validate an integer matrix as a GCM; raise a named error otherwise.

    Entries are preserved exactly.  Default labels are 1..n.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if labels is None:
        labels = tuple(range(1, n + 1))
    else:
        labels = tuple(labels)
    if len(labels) != n or len(set(labels)) != n:
        raise ValueError("labels must be distinct and match the matrix size")
    rows = tuple(tuple(int(x) for x in r) for r in rows)
    for i, s in enumerate(labels):
        if rows[i][i] != 2:
            raise DiagonalNotTwo(f"A[{s!r}][{s!r}] = {rows[i][i]}, expected 2", s=s, t=s)
        for j, t in enumerate(labels):
            if i == j:
                continue
            if rows[i][j] > 0:
                raise PositiveOffDiagonal(
                    f"A[{s!r}][{t!r}] = {rows[i][j]} > 0", s=s, t=t
                )
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                # report the vanishing side of the offending pair
                bad = (s, t) if rows[i][j] == 0 else (t, s)
                raise AsymmetricZero(
                    f"A[{bad[0]!r}][{bad[1]!r}] = 0 but A[{bad[1]!r}][{bad[0]!r}] != 0",
                    s=bad[0],
                    t=bad[1],
                )
    return GeneralizedCartanMatrix(labels=labels, rows=rows)


def det_int(rows):
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _submatrix(rows, idx):
    return [[rows[i][j] for j in idx] for i in idx]


def connected_components(gcm):
    """Partition of the label set into diagram-connected blocks (s ~ t iff A[s][t] != 0)."""
    remaining = set(range(gcm.size))
    blocks = []
    while remaining:
        start = min(remaining)
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(gcm.size):
                if j not in seen and gcm.rows[i][j] != 0:
                    seen.add(j)
                    stack.append(j)
        blocks.append(tuple(sorted(seen)))
        remaining -= seen
    blocks.sort(key=lambda b: b[0])
    return [tuple(gcm.labels[i] for i in b) for b in blocks]


def _classify_block(rows, idx):
    """finite/affine/indefinite tag of one indecomposable block, by principal minors."""
    n = len(idx)
    full = det_int(_submatrix(rows, idx))
    proper_positive = True
    for size in range(1, n):
        for sub in combinations(idx, size):
            if det_int(_submatrix(rows, sub)) <= 0:
                proper_positive = False
                break
        if not proper_positive:
            break
    if proper_positive and full > 0:
        return FINITE
    if proper_positive and full == 0:
        return AFFINE
    return INDEFINITE


@dataclass(frozen=True)
class GcmType:
    """Classification result: overall tag plus per-block tags.

    ``blocks`` lists (labels, tag) per indecomposable diagram component.  The
    overall ``tag`` is the worst block tag in the order
    finite < affine < indefinite, so the whole matrix is tagged finite iff
    every block is.
    """

    tag: str
    blocks: tuple  # tuple of (labels tuple, tag)

    @property
    def is_indecomposable(self):
        return len(self.blocks) == 1


_SEVERITY = {FINITE: 0, AFFINE: 1, INDEFINITE: 2}


def classify(gcm):
    """Classify a validated GCM blockwise via the principal-minor criterion.

    For an indecomposable block: finite iff all principal minors are positive,
    affine iff the determinant vanishes and all proper principal minors are
    positive, indefinite otherwise.
    """
    blocks = []
    for block_labels in connected_components(gcm):
        idx = [gcm.position(s) for s in block_labels]
        blocks.append((block_labels, _classify_block(gcm.rows, idx)))
    overall = max((tag for _, tag in blocks), key=_SEVERITY.__getitem__, default=FINITE)
    return GcmType(tag=overall, blocks=tuple(blocks))


def check_off_diagonal_hypothesis(gcm, p):
    """The largest off-diagonal size max |a_ij| of a validated GCM; raises
    HypothesisViolated unless p exceeds it, the paper's hypothesis for both
    group models."""
    bound = max(
        (-a for i, row in enumerate(gcm.rows) for j, a in enumerate(row) if i != j),
        default=0,
    )
    if p <= bound:
        raise HypothesisViolated(
            f"p = {p} must exceed the largest off-diagonal size {bound}"
        )
    return bound
