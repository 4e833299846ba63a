"""Iwahori-level Sylow model inside SL_m over F_q[t]/(t^k).

The Sylow p-subgroup is the set of determinant-one matrices that reduce to
unipotent upper-triangular matrices mod t.  Generators are superdiagonal
elementaries plus the corner elementary carrying an explicit factor t;
the corner matrix without that factor fails the mod-t membership test.

Right multiplication by a fixed matrix is linear in the entry coefficients;
in that form it backs the bulk hook of the group engine.  Subgroup filters
read the keys as (n, m, m, k) coefficient stacks, one block at a time.
"""

import time
from math import prod

import numpy as np

from .errors import (
    EnumerationCapExceeded,
    SylowNotGenerated,
    TruncationTooShallow,
)
from .gcm import check_off_diagonal_hypothesis, validate_gcm
from .pgroup import (
    DEFAULT_CAP,
    FiniteGroupTable,
    GroupOracle,
    _log_exact,
    bulk_hook,
    closure,
    derived_subgroup,
    frattini_quotient_dimension,
    frattini_subgroup,
    select,
)


class TruncatedPolyRing:
    """F_q[t]/(t^k); elements are length-k tuples of field codes, constant
    term first."""

    def __init__(self, fq, k):
        if k < 1:
            raise ValueError("truncation order must be at least 1")
        self.fq = fq
        self.k = k
        self.zero = (0,) * k
        self.one = (1,) + (0,) * (k - 1)
        self.t = (0, 1) + (0,) * (k - 2) if k >= 2 else self.zero

    def add(self, a, b):
        fq = self.fq
        return tuple(fq.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        fq = self.fq
        return tuple(fq.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        fq = self.fq
        return tuple(fq.neg(x) for x in a)

    def mul(self, a, b):
        fq = self.fq
        out = [0] * self.k
        for i, x in enumerate(a):
            if not x:
                continue
            for j in range(self.k - i):
                y = b[j]
                if y:
                    out[i + j] = fq.add(out[i + j], fq.mul(x, y))
        return tuple(out)

    def monomial(self, code, degree=0):
        """code * t^degree, truncated."""
        out = [0] * self.k
        if degree < self.k:
            out[degree] = code
        return tuple(out)


class AffineMatrixGroup:
    """Matrix arithmetic for SL_m over a truncated polynomial ring, with
    byte keys and a bulk multiplication hook."""

    def __init__(self, m, fq, k):
        if m < 2:
            raise ValueError("matrix size must be at least 2")
        self.m = m
        self.fq = fq
        self.k = k
        self.width = m * m * k
        self.ring = TruncatedPolyRing(fq, k)
        self.identity = tuple(
            tuple(self.ring.one if i == j else self.ring.zero for j in range(m))
            for i in range(m)
        )

    def elementary(self, i, j, ring_value):
        """identity + ring_value * E_{i,j} (zero-based positions)."""
        rows = [list(row) for row in self.identity]
        rows[i][j] = self.ring.add(rows[i][j], ring_value)
        return tuple(tuple(row) for row in rows)

    def mul(self, A, B):
        ring = self.ring
        m = self.m
        out = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = ring.zero
                for l in range(m):
                    acc = ring.add(acc, ring.mul(A[i][l], B[l][j]))
                row.append(acc)
            out.append(tuple(row))
        return tuple(out)

    def det(self, A):
        return _det(self.ring, [list(row) for row in A])

    def inverse(self, A):
        """Adjugate; valid because determinants are constrained to one."""
        ring = self.ring
        m = self.m
        if self.det(A) != ring.one:
            raise ValueError("matrix determinant is not one")
        out = [[ring.zero] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                minor = [
                    [A[r][c] for c in range(m) if c != j]
                    for r in range(m)
                    if r != i
                ]
                cof = _det(ring, minor)
                if (i + j) % 2:
                    cof = ring.neg(cof)
                out[j][i] = cof
        return tuple(tuple(row) for row in out)

    def key(self, A):
        return bytes(c for row in A for entry in row for c in entry)

    def element(self, key):
        m, k = self.m, self.k
        it = iter(key)
        return tuple(
            tuple(tuple(next(it) for _ in range(k)) for _ in range(m))
            for _ in range(m)
        )

    def reduce_to(self, A, smaller):
        """Image under the coefficient-truncation homomorphism onto the
        group over F_q[t]/(t^k') for k' <= k."""
        kk = smaller.k
        return tuple(tuple(entry[:kk] for entry in row) for row in A)

    def right_polys(self, gkey):
        """Right multiplication by a fixed matrix, which is linear in the
        entry coefficients: for each coefficient of A g, its (code,
        (coefficient of A,)) terms, for pgroup.bulk_hook."""
        g = self.element(gkey)
        m, k = self.m, self.k

        def pos(i, j, d):
            return (i * m + j) * k + d

        return [
            tuple(
                (g[l][j][d - e], (pos(i, l, e),))
                for l in range(m)
                for e in range(d + 1)
                if g[l][j][d - e]
            )
            for i in range(m)
            for j in range(m)
            for d in range(k)
        ]

    def oracle(self):
        def mul(a, b):
            return self.key(self.mul(self.element(a), self.element(b)))

        def inv(a):
            return self.key(self.inverse(self.element(a)))

        mul_many = bulk_hook(self.fq, self.right_polys)
        return GroupOracle(self.key(self.identity), mul, inv, mul_many)

    def select(self, keys, predicate):
        """pgroup.select with predicate applied to (n, m, m, k) coefficient
        stacks instead of key rows."""
        shape = (-1, self.m, self.m, self.k)
        return select(keys, self.width, lambda rows: predicate(rows.reshape(shape)))

    def subtable(self, table, predicate):
        """Members of an enumerated table whose matrices pass predicate."""
        members = tuple(self.select(table.elements, predicate))
        return FiniteGroupTable(table.oracle, (), members, p=table.p)


def _det(ring, rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    out = ring.zero
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = ring.mul(rows[0][j], _det(ring, minor))
        out = ring.sub(out, term) if j % 2 else ring.add(out, term)
    return out


def iwahori_sylow_membership(group, A):
    """True where the matrix is unipotent upper-triangular mod t; A is one
    matrix or a stack of them with the (m, m, k) coefficient axes last."""
    constant = np.asarray(A)[..., 0]
    identity = np.array(group.identity, dtype=np.uint8)[..., 0]
    position = np.arange(group.m)
    above = position[:, None] < position
    return ((constant == identity) | above).all(axis=(-2, -1))


def sylow_generators(m, fq, k):
    """Superdiagonal elementaries 1 + v_l E_{i,i+1} plus the corner
    elementaries 1 + v_l t E_{m,1}; m*r matrices in total."""
    group = AffineMatrixGroup(m, fq, k)
    out = []
    for i in range(m - 1):
        for code in fq.basis:
            out.append(group.elementary(i, i + 1, group.ring.monomial(code, 0)))
    for code in fq.basis:
        out.append(group.elementary(m - 1, 0, group.ring.monomial(code, 1)))
    return out


def sylow_order(m, fq, k):
    """q^(m(m-1)/2) * q^((m^2-1)(k-1)): the mod-t unipotent count times the
    size of the kernel of reduction mod t."""
    return fq.q ** (m * (m - 1) // 2) * fq.q ** ((m * m - 1) * (k - 1))


def sylow_table(m, fq, k, cap=DEFAULT_CAP, group=None):
    """Enumerated Sylow subgroup as a group-engine table."""
    group = group or AffineMatrixGroup(m, fq, k)
    oracle = group.oracle()
    gens = [group.key(A) for A in sylow_generators(m, fq, k)]
    return group, closure(gens, oracle, cap=cap, p=fq.p)


def verify_generation(m, fq, k, cap=DEFAULT_CAP, precomputed=None):
    """True iff the standard generators produce exactly the matrices passing
    the membership test: the closure has the predicted order and every
    closure element passes membership.  An order above the cap is refused
    before anything is enumerated; precomputed is the (group, table) pair
    of sylow_table, enumerated here when not given."""
    expected = sylow_order(m, fq, k)
    if expected > cap:
        raise EnumerationCapExceeded(
            f"Sylow order {expected} exceeds the cap of {cap}"
        )
    group, table = precomputed or sylow_table(m, fq, k, cap=cap)
    if table.order != expected:
        return False
    # the scan ends in the first block holding a non-member
    outsiders = group.select(
        table.elements, lambda A: ~iwahori_sylow_membership(group, A)
    )
    return next(outsiders, None) is None


def frattini_dimension_affine(m, fq, k, cap=DEFAULT_CAP, precomputed=None):
    """Black-box Frattini quotient dimension of the enumerated Sylow.

    The enumeration is the closure of the standard generators; when that
    closure is smaller than sylow_order it is not the Sylow, and
    SylowNotGenerated is raised instead of reporting its dimension."""
    _, table = precomputed or sylow_table(m, fq, k, cap=cap)
    expected = sylow_order(m, fq, k)
    if table.order != expected:
        raise SylowNotGenerated(
            f"the standard generators close up to {table.order} of the "
            f"{expected} Sylow elements"
        )
    return frattini_quotient_dimension(table, cap=cap)


def affine_cartan_matrix(m):
    """Cartan matrix of A_{m-1}^(1): 2 on the diagonal, minus one for each
    edge joining i and j in the m-cycle, so m = 2 gives a double bond."""
    return validate_gcm(
        [[2 * (i == j) - ((i - j) % m == 1) - ((j - i) % m == 1) for j in range(m)]
         for i in range(m)]
    )


def predicted_h1(m, fq, k):
    """Predicted dim H_1 of the Sylow: m*r, or (m-1)*r at k = 1, where the
    corner generators vanish."""
    return m * fq.r if k >= 2 else (m - 1) * fq.r


def verify_theorem1_affine(m, fq, k, cap=DEFAULT_CAP, precomputed=None, generates=None):
    """Theorem 1 for the Iwahori Sylow subgroup of SL_m(F_q[t]/(t^k)), with
    the report fields of verify_theorem1 (None where this model has no value,
    no caveat) plus model, m and k.  The hypothesis p > max |a_ij| of
    A_{m-1}^(1) is checked before anything is enumerated.  precomputed is the
    (group, table) pair of sylow_table and generates the verdict of
    verify_generation on it; each is computed when not given."""
    check_off_diagonal_hypothesis(affine_cartan_matrix(m), fq.p)
    t0 = time.perf_counter()
    group, table = precomputed or sylow_table(m, fq, k, cap=cap)
    phi = frattini_subgroup(table, cap=cap)
    derived = derived_subgroup(table, cap=cap)
    if generates is None:
        generates = verify_generation(m, fq, k, cap=cap, precomputed=(group, table))
    return {
        "model": "affine_matrix",
        "gcm": None,
        "m": m,
        "k": k,
        "q": fq.q,
        "H": None,
        "h1_blackbox": _log_exact(table.order // phi.order, fq.p),
        "h1_linear": None,
        "h1_predicted": predicted_h1(m, fq, k),
        "frattini_eq_derived": phi.element_set == derived.element_set,
        "thm_ii_lhs_order": None,
        "thm_ii_rhs_order": None,
        "generators_generate": generates,
        "elapsed_ms": int(round((time.perf_counter() - t0) * 1000)),
    }


def commutator_identity_check(fq, r_val, s_val, m_exp, n_exp, K):
    """Compare [1 + r t^m E12, 1 + s t^n E21] in SL_2 over F_q[t]/(t^K)
    against the closed form

        [[1 + u + u^2,  -r^2 s t^(2m+n)],
         [r s^2 t^(m+2n),  1 - u]]        with u = r s t^(m+n).
    """
    if K <= 3 * max(m_exp, n_exp):
        raise TruncationTooShallow(
            f"need K > {3 * max(m_exp, n_exp)} to keep every displayed entry"
        )
    group = AffineMatrixGroup(2, fq, K)
    ring = group.ring
    x = group.elementary(0, 1, ring.monomial(r_val, m_exp))
    y = group.elementary(1, 0, ring.monomial(s_val, n_exp))
    lhs = group.mul(
        group.mul(group.mul(x, y), group.inverse(x)), group.inverse(y)
    )
    u = ring.mul(ring.monomial(r_val, m_exp), ring.monomial(s_val, n_exp))
    r2s = fq.mul(fq.mul(r_val, r_val), s_val)
    rs2 = fq.mul(r_val, fq.mul(s_val, s_val))
    rhs = (
        (
            ring.add(ring.add(ring.one, u), ring.mul(u, u)),
            ring.neg(ring.monomial(r2s, 2 * m_exp + n_exp)),
        ),
        (
            ring.monomial(rs2, m_exp + 2 * n_exp),
            ring.sub(ring.one, u),
        ),
    )
    return lhs == rhs


def congruence_subgroup(m, fq, k, i, cap=DEFAULT_CAP, precomputed=None):
    """Matrices of the Sylow congruent to the identity mod t^i.  The chain
    K_1 > ... > K_k = 1 refines the Sylow."""
    if not 1 <= i <= k:
        raise ValueError("congruence level must satisfy 1 <= i <= k")
    group, table = precomputed or sylow_table(m, fq, k, cap=cap)
    prefix = np.array(group.identity, dtype=np.uint8)[..., :i]
    return group.subtable(
        table, lambda A: (A[..., :i] == prefix).all(axis=(1, 2, 3))
    )


def special_linear_order(m, fq):
    """|SL_m(F_q)| = q^(m(m-1)/2) * prod_{i=2..m} (q^i - 1)."""
    return fq.q ** (m * (m - 1) // 2) * prod(fq.q ** i - 1 for i in range(2, m + 1))


def enumerate_special_linear(m, fq, cap=DEFAULT_CAP):
    """All of SL_m(F_q) as the closure of the elementary transvections
    1 + v E_{i,j}, v over an F_p-basis of F_q, which generate it.  An order
    above the cap is refused before anything is enumerated."""
    order = special_linear_order(m, fq)
    if order > cap:
        raise EnumerationCapExceeded(
            f"|SL_{m}(F_{fq.q})| = {order} exceeds the cap of {cap}"
        )
    group = AffineMatrixGroup(m, fq, 1)
    gens = [
        group.key(group.elementary(i, j, (code,)))
        for i in range(m)
        for j in range(m)
        if i != j
        for code in fq.basis
    ]
    return group, closure(gens, group.oracle(), cap=cap, p=fq.p)


def borel_subgroup(group, table):
    """Upper-triangular members of an enumerated matrix group table."""
    below = np.tril(np.ones((group.m, group.m), dtype=bool), -1)
    return group.subtable(table, lambda A: ~A[:, below].any(axis=(1, 2)))


def monomial_subgroup(group, table):
    """Members with exactly one nonzero entry in every row and column."""

    def one_per_line(A):
        nonzero = A.any(axis=3)
        rows = (nonzero.sum(axis=2) == 1).all(axis=1)
        return rows & (nonzero.sum(axis=1) == 1).all(axis=1)

    return group.subtable(table, one_per_line)


def weyl_representatives(group):
    """One rotation block [[0,1],[-1,0]] per adjacent transposition."""
    out = []
    ring = group.ring
    for i in range(group.m - 1):
        rows = [list(row) for row in group.identity]
        rows[i][i] = ring.zero
        rows[i + 1][i + 1] = ring.zero
        rows[i][i + 1] = ring.one
        rows[i + 1][i] = ring.neg(ring.one)
        out.append(group.key(tuple(tuple(row) for row in rows)))
    return out
