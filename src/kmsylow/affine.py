"""Iwahori-level Sylow model inside SL_m over F_q[t]/(t^k).

The Sylow p-subgroup is the set of determinant-one matrices that reduce to
unipotent upper-triangular matrices mod t.  Generators are superdiagonal
elementaries plus the corner elementary carrying an explicit factor t;
the corner matrix without that factor fails the mod-t membership test.

Elements are byte keys of entry coefficients.  The product is a fixed
bilinear map in those coefficients and, determinants being one, the inverse
is the adjugate, a fixed polynomial map of degree m-1; both are law
polynomial maps, which give the group oracle its scalar product, its
inverse, its bulk right multiplication and its bulk products of row pairs,
and each group builds its oracle once.  Subgroup filters read a table's
rows as (n, m, m, k) coefficient stacks.

The Sylow carries the level filtration of the Iwahori (Moy and Prasad,
Invent. Math. 116, 1994): coefficient t^d at position (i, j) has level
m d + j - i, and I_l holds the matrices whose entries of g - 1 all have
level at least l.  It is an N-series, [I_a, I_b] in I_(a+b) and I_l^p in
I_(l+1), so the layered engine of pgroup gives the orders of the subgroup
the standard generators generate and of its Frattini subgroup without
listing them; enumeration is then sized from the one and refused past
the cap from both before any product.
"""

from functools import cached_property, partial
from itertools import combinations, permutations, product
from math import prod

import numpy as np

from .errors import EnumerationCapExceeded, TruncationTooShallow
from .gcm import check_off_diagonal_hypothesis, validate_gcm
from .law import PolynomialMap, key_rows, law_oracle, lead_map, row_keys
from .pgroup import DEFAULT_CAP, SCAN_BLOCK, FrattiniCount, _log_exact, closure


class AffineMatrixGroup:
    """SL_m over F_q[t]/(t^k) on byte keys: a key lists the coefficients of
    the entries row by row, constant term first, so coefficient t^d at
    position (i, j) is byte (i*m + j)*k + d."""

    def __init__(self, m, fq, k):
        if m < 2:
            raise ValueError("matrix size must be at least 2")
        if k < 1:
            raise ValueError("truncation order must be at least 1")
        self.m = m
        self.fq = fq
        self.k = k
        self.width = m * m * k
        identity = bytearray(self.width)
        for i in range(m):
            identity[(i * m + i) * k] = 1
        self.identity = bytes(identity)
        self._oracle = None

    def elementary(self, i, j, code, degree=0):
        """identity + code * t^degree * E_{i,j} (zero-based positions), the
        identity when t^degree vanishes."""
        out = bytearray(self.identity)
        if degree < self.k:
            at = (i * self.m + j) * self.k + degree
            out[at] = self.fq.add(out[at], code)
        return bytes(out)

    def oracle(self):
        if self._oracle is None:
            self._oracle = _matrix_oracle(self.m, self.fq, self.k, self.identity)
        return self._oracle

    def lead_map(self, level):
        """The leading-term map (law.lead_map) of the filtration by level,
        a function of (i, j, d) giving the level of coefficient t^d at
        position (i, j): a key other than the identity goes to the least
        level l of a nonzero coefficient of g - 1 and the F_p digits of the
        coefficients of g - 1 of level l."""
        m, k = self.m, self.k
        levels = [level(i, j, d) for i in range(m) for j in range(m) for d in range(k)]
        return lead_map(self.fq, self.identity, levels)

    def subtable(self, table, predicate, rows=None):
        """Members of an enumerated table whose matrices pass predicate, a
        map from an (n, m, m, k) stack to a mask, answering membership
        through the table; rows, if given, stand for the table's
        (FiniteGroupTable.subtable)."""
        m, k = self.m, self.k
        return table.subtable(lambda block: predicate(block.reshape(-1, m, m, k)), rows)

    def congruent(self, i):
        """A mask of the (n, m, m, k) stack's matrices that are 1 mod t^i."""
        one = np.frombuffer(self.identity, dtype=np.uint8).reshape(self.m, self.m, self.k)
        return lambda A: (A[..., :i] == one[..., :i]).all(axis=(1, 2, 3))


def _matrix_oracle(m, fq, k, identity):
    """The group oracle of SL_m over F_q[t]/(t^k) (the identity key follows
    from m and k): its product and its inverse are polynomial maps in the
    key coefficients.

    The product is the convolution (AB)[i,j,d] = sum over l and e <= d of
    A[i,l,e] B[l,j,d-e].  Determinants are one, so the inverse is the
    adjugate: entry (j, i) is (-1)^(i+j) times the minor without row i and
    column j, expanded over permutations and over the degrees of its m-1
    factors."""

    def pos(i, j, d):
        return (i * m + j) * k + d

    law = tuple(
        tuple(
            (1, (pos(i, l, e),), (pos(l, j, d - e),))
            for l in range(m)
            for e in range(d + 1)
        )
        for i in range(m)
        for j in range(m)
        for d in range(k)
    )
    adjugate = [[] for _ in range(m * m * k)]
    for i, j in product(range(m), repeat=2):
        rows = [r for r in range(m) if r != i]
        cols = [c for c in range(m) if c != j]
        for perm in permutations(range(m - 1)):
            inversions = sum(a > b for a, b in combinations(perm, 2))
            code = fq.neg(1) if (i + j + inversions) % 2 else 1
            for degrees in product(range(k), repeat=m - 1):
                if sum(degrees) < k:
                    xs = tuple(
                        pos(r, cols[c], e) for r, c, e in zip(rows, perm, degrees)
                    )
                    adjugate[pos(j, i, sum(degrees))].append((code, xs, ()))
    inverse = PolynomialMap(fq, tuple(map(tuple, adjugate)))
    return law_oracle(fq, identity, PolynomialMap(fq, law), inverse)


def iwahori_sylow_membership(group, A):
    """True where the matrix is unipotent upper-triangular mod t; A is an
    (m, m, k) coefficient array or a stack of them with those axes last.
    Only the constant terms on and below the diagonal are read."""
    i, j = np.tril_indices(group.m)
    return (A[..., i, j, 0] == (i == j)).all(axis=-1)


def sylow_generators(m, fq, k):
    """Superdiagonal elementaries 1 + v_l E_{i,i+1} plus the corner
    elementaries 1 + v_l t E_{m,1}; m*r matrices in total."""
    group = AffineMatrixGroup(m, fq, k)
    upper = [group.elementary(i, i + 1, code) for i in range(m - 1) for code in fq.basis]
    return upper + [group.elementary(m - 1, 0, code, 1) for code in fq.basis]


def iwahori_level(m, i, j, d):
    """The level m d + j - i of coefficient t^d at position (i, j) in the
    filtration of the Iwahori of SL_m: levels add under the product, the
    Sylow's generators have level 1, and the Sylow's coefficients of
    g - 1 have levels 1 to mk - 1."""
    return m * d + j - i


def sylow_order(m, fq, k):
    """q^(m(m-1)/2) * q^((m^2-1)(k-1)): the mod-t unipotent count times the
    size of the kernel of reduction mod t."""
    return fq.q ** (m * (m - 1) // 2) * fq.q ** ((m * m - 1) * (k - 1))


class IwahoriSylow:
    """The Iwahori Sylow of SL_m over F_q[t]/(t^k) under one cap: its group,
    its order and its standard generators, and on first use its table (the
    closure of the standard generators) and the Frattini count of those
    generators, whose layered orders on the level filtration, |<gens>| and
    |Phi|, each computed once and only when a check asks for it, size
    enumeration and refuse it before any product.  Checks that share one
    count it once: Phi's table and the index are kept."""

    def __init__(self, m, fq, k, cap):
        self.m, self.fq, self.k, self.cap = m, fq, k, cap
        self.group = AffineMatrixGroup(m, fq, k)
        self.order = sylow_order(m, fq, k)
        self.generators = sylow_generators(m, fq, k)
        self.lead = self.group.lead_map(partial(iwahori_level, m))

    @cached_property
    def count(self):
        return FrattiniCount(self.generators, self.group.oracle(), self.fq.p, self.lead)

    @cached_property
    def table(self):
        return sylow_table(self)

    @cached_property
    def frattini(self):
        return self.count.index(self.cap)


def sylow_table(sylow):
    """The closure of the standard generators as a group-engine table,
    allocated at its layered order and refused by it past the cap, read as
    it streams: sylow.inside is whether every element passes membership,
    and sylow.deep holds the rows of K_2."""
    group, m, k = sylow.group, sylow.m, sylow.k
    mod_t2 = group.congruent(2)
    sylow.inside, deep = True, []

    def visit(rows):
        A = rows.reshape(-1, m, m, k)
        sylow.inside = sylow.inside and bool(iwahori_sylow_membership(group, A).all())
        deep.append(rows[mod_t2(A)])

    table = closure(
        sylow.generators, group.oracle(), sylow.cap, sylow.fq.p, sylow.count.order, visit
    )
    sylow.deep = np.concatenate(deep)
    return table


def verify_generation(sylow):
    """True iff the standard generators produce exactly the matrices passing
    the membership test: the table has the Sylow's order and every element
    passed it (sylow_table).  An order above the cap is refused before
    anything is enumerated."""
    if sylow.order > sylow.cap:
        raise EnumerationCapExceeded(
            f"Sylow order {sylow.order} exceeds the cap of {sylow.cap}"
        )
    return sylow.table.order == sylow.order and sylow.inside


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


def verify_theorem1_affine(sylow):
    """Theorem 1 for an IwahoriSylow, with the report fields of
    verify_theorem1 (None where this model has no value, no caveat) plus
    model, m and k.  The hypothesis p > max |a_ij| of A_{m-1}^(1) is checked
    here first, and nowhere else in this model.

    As in verify_theorem1, the Frattini subgroup of the closure of the
    standard generators is listed and its cosets counted, and the Sylow is
    never listed: h1_blackbox is log_p of the index, and the generators,
    which lie in the Sylow by construction, generate it when |Phi| times
    the index is the Sylow's order.  h1_layered is log_p of the same index
    from the layered orders of the closure and of Phi."""
    m, fq, k = sylow.m, sylow.fq, sylow.k
    check_off_diagonal_hypothesis(affine_cartan_matrix(m), fq.p)
    phi, index = sylow.frattini
    return {
        "model": "affine_matrix",
        "gcm": None,
        "m": m,
        "k": k,
        "q": fq.q,
        "H": None,
        "h1_blackbox": _log_exact(index, fq.p),
        "h1_layered": sylow.count.h1_layered,
        "h1_linear": None,
        "h1_predicted": predicted_h1(m, fq, k),
        "frattini_eq_derived": sylow.count.frattini_eq_derived,
        "thm_ii_lhs_order": None,
        "thm_ii_rhs_order": None,
        "generators_generate": phi.order * index == sylow.order,
    }


def commutator_identity_check(fq, r_val, s_val, m_exp, n_exp, K):
    """Compare [1 + r t^m E12, 1 + s t^n E21] in SL_2 over F_q[t]/(t^K)
    against the closed form

        [[1 + u + u^2,  -r^2 s t^(2m+n)],
         [r s^2 t^(m+2n),  1 - u]]        with u = r s t^(m+n).

    r, s, m and n broadcast against each other: scalars give one bool,
    arrays one bool per case.  Before any product, the first case (in
    flattened order) with K <= 3 max(m, n) is refused.  The inverses come
    from the oracle, one per distinct (r, m) and (s, n); the cases are
    multiplied out as (x y) x^-1 y^-1 by bulk products of row pairs,
    SCAN_BLOCK rows at a time, and each compared with its closed form."""
    r, s, m, n = np.broadcast_arrays(r_val, s_val, m_exp, n_exp)
    shape = r.shape
    r, s, m, n = (v.ravel().astype(np.intp) for v in (r, s, m, n))
    bound = 3 * np.maximum(m, n)
    shallow = np.flatnonzero(K <= bound)
    if len(shallow):
        raise TruncationTooShallow(
            f"need K > {int(bound[shallow[0]])} to keep every displayed entry"
        )
    group = AffineMatrixGroup(2, fq, K)
    oracle = group.oracle()
    cases = np.arange(len(r))
    identity = np.tile(np.frombuffer(group.identity, dtype=np.uint8), (len(r), 1))
    x, y = identity.copy(), identity.copy()
    x[cases, K + m] = r
    y[cases, 2 * K + n] = s

    def inverses(rows, code):
        _, first, back = np.unique(code, return_index=True, return_inverse=True)
        inv = [oracle.inv(key) for key in row_keys(rows[first])]
        return key_rows(inv, group.width)[back]

    x_inv, y_inv = inverses(x, r * K + m), inverses(y, s * K + n)
    rhs = _commutator_closed_form(fq, identity, r, s, m, n, K)
    ok = np.empty(len(r), dtype=bool)
    for at in range(0, len(r), SCAN_BLOCK):
        block = slice(at, at + SCAN_BLOCK)
        xy = oracle.mul_pairs(x[block], y[block])
        out = oracle.mul_pairs(oracle.mul_pairs(xy, x_inv[block]), y_inv[block])
        ok[block] = (out == rhs[block]).all(axis=1)
    return ok.reshape(shape) if shape else bool(ok[0])


def _commutator_closed_form(fq, rows, r, s, m, n, K):
    """The closed form of commutator_identity_check written into rows, the
    identity once per case, and returned; r, s, m and n are intp arrays of
    one length."""
    add = np.array(fq._add, dtype=np.uint8)
    neg = np.array(fq._neg, dtype=np.uint8)
    rs = fq.MUL[r, s]
    for i, j, d, code in (
        (0, 0, m + n, rs),
        (0, 0, 2 * (m + n), fq.MUL[rs, rs]),
        (0, 1, 2 * m + n, neg[fq.MUL[rs, r]]),
        (1, 0, m + 2 * n, fq.MUL[rs, s]),
        (1, 1, m + n, neg[rs]),
    ):
        kept = np.flatnonzero(d < K)
        at = (i * 2 + j) * K + d[kept]
        rows[kept, at] = add[rows[kept, at], code[kept]]
    return rows


def congruence_subgroup(sylow, i):
    """Matrices of the Sylow's table congruent to the identity mod t^i, past
    i = 1 from the rows of K_2.  The chain K_1 > ... > K_k = 1 refines the
    Sylow."""
    if not 1 <= i <= sylow.k:
        raise ValueError("congruence level must satisfy 1 <= i <= k")
    table = sylow.table  # listed first: the listing keeps the rows of K_2
    return sylow.group.subtable(table, sylow.group.congruent(i), sylow.deep if i > 1 else None)


def special_linear_order(m, fq):
    """|SL_m(F_q)| = q^(m(m-1)/2) * prod_{i=2..m} (q^i - 1)."""
    return fq.q ** (m * (m - 1) // 2) * prod(fq.q ** i - 1 for i in range(2, m + 1))


def enumerate_special_linear(m, fq, cap=DEFAULT_CAP):
    """All of SL_m(F_q) as the closure of the elementary transvections
    1 + v E_{i,j}, v over an F_p-basis of F_q, which generate it.  An order
    above the cap is refused before anything is enumerated, and the closure
    is capped at the order."""
    order = special_linear_order(m, fq)
    if order > cap:
        raise EnumerationCapExceeded(
            f"|SL_{m}(F_{fq.q})| = {order} exceeds the cap of {cap}"
        )
    group = AffineMatrixGroup(m, fq, 1)
    gens = [
        group.elementary(i, j, code)
        for i in range(m)
        for j in range(m)
        if i != j
        for code in fq.basis
    ]
    return group, closure(gens, group.oracle(), cap=order)


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
    m, k = group.m, group.k
    out = []
    for i in range(m - 1):
        rows = bytearray(group.identity)
        block = ((i, i, 0), (i + 1, i + 1, 0), (i, i + 1, 1), (i + 1, i, group.fq.neg(1)))
        for r, c, code in block:
            rows[(r * m + c) * k] = code
        out.append(bytes(rows))
    return out
