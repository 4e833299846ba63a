"""Test helpers: matrix groups found by filtering every candidate matrix.

The Sylow subgroup is enumerated by the membership test over every matrix
of SL_m(F_q[t]/(t^k)) candidates, and its Frattini quotient dimension is
computed from a generating set picked out of that enumeration, so neither
number depends on the standard generators.  SL_m(F_q) is enumerated the same
way by its determinant alone, so it does not depend on its generators either.

The determinant, product and inverse here are schoolbook arithmetic on
nested lists, the reference for the polynomial maps of the group oracle.

frattini_quotient_dimension is the slower way to the Frattini quotient: it
needs the group listed and divides its order by the Frattini subgroup's,
where pgroup.FrattiniCount counts cosets instead.  It is the oracle that
theorem 1's enumeration is compared with.
"""

import numpy as np

from kmsylow.affine import AffineMatrixGroup, iwahori_sylow_membership
from kmsylow.pgroup import (
    _log_exact,
    _power,
    closure,
    generator_commutators,
    normal_closure,
)


def _candidates(group):
    """Every coefficient array of the group as one (q^(m*m*k), m, m, k)
    uint8 stack."""
    m, k, q = group.m, group.k, group.fq.q
    n = m * m * k
    codes = np.indices((q,) * n, dtype=np.uint8).reshape(n, -1).T
    return codes.reshape(-1, m, m, k)


def matrix_of(group, key):
    """A key as nested lists: rows of entries, each entry its k
    coefficients, constant term first."""
    return np.frombuffer(key, dtype=np.uint8).reshape(group.m, group.m, group.k).tolist()


def key_of(A):
    """The key of a matrix given as nested lists."""
    return bytes(c for row in A for entry in row for c in entry)


def poly_mul(fq, a, b):
    """Schoolbook product of two polynomials truncated to the length of a."""
    k = len(a)
    out = [0] * k
    for i, x in enumerate(a):
        for j in range(k - i):
            out[i + j] = fq.add(out[i + j], fq.mul(x, b[j]))
    return out


def _poly_add(fq, a, b):
    return [fq.add(x, y) for x, y in zip(a, b)]


def matrix_mul(fq, A, B):
    """Schoolbook product of two matrices over F_q[t]/(t^k)."""
    k = len(A[0][0])
    out = []
    for row in A:
        out.append([])
        for j in range(len(B[0])):
            acc = [0] * k
            for a, B_row in zip(row, B):
                acc = _poly_add(fq, acc, poly_mul(fq, a, B_row[j]))
            out[-1].append(acc)
    return out


def det(fq, A):
    """Determinant by cofactor expansion along the first row."""
    if len(A) == 1:
        return list(A[0][0])
    out = [0] * len(A[0][0])
    for j, entry in enumerate(A[0]):
        term = poly_mul(fq, entry, det(fq, [row[:j] + row[j + 1 :] for row in A[1:]]))
        out = _poly_add(fq, out, [fq.neg(c) for c in term] if j % 2 else term)
    return out


def inverse(fq, A):
    """Adjugate by cofactors, the inverse of a determinant-one matrix."""
    m = len(A)
    out = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            minor = [row[:j] + row[j + 1 :] for r, row in enumerate(A) if r != i]
            cof = det(fq, minor)
            out[j][i] = [fq.neg(c) for c in cof] if (i + j) % 2 else cof
    return out


def _det_one_keys(group, stack):
    """Keys of the matrices of a stack whose determinant is one."""
    one = [1] + [0] * (group.k - 1)
    return {key_of(A) for A in stack.tolist() if det(group.fq, A) == one}


def brute_force_sylow(m, fq, k):
    """Keys of every determinant-one matrix passing the membership test,
    found by trying all q^(m*m*k) coefficient arrays."""
    group = AffineMatrixGroup(m, fq, k)
    stack = _candidates(group)
    return _det_one_keys(group, stack[iwahori_sylow_membership(group, stack)])


def brute_force_special_linear(m, fq):
    """Keys of SL_m(F_q), found by trying all q^(m*m) matrices."""
    group = AffineMatrixGroup(m, fq, 1)
    return _det_one_keys(group, _candidates(group))


def frattini_dimension_of(elements, oracle, p):
    """Frattini quotient dimension of the group whose keys are given.

    Walks the keys in sorted order and keeps each one not yet in the
    closure of those kept; the kept keys generate the whole set, which is
    checked before the dimension is computed from them.
    """
    gens = []
    table = closure(gens, oracle, p=p)
    for key in sorted(elements):
        if key not in table:
            gens.append(key)
            table = closure(gens, oracle, p=p)
    assert frozenset(table.elements) == set(elements), "the keys are not a group"
    return frattini_quotient_dimension(table, p)


def frattini_quotient_dimension(G, p):
    """log_p |G / Phi(G)| for an enumerated p-group table G: Phi(G) is
    listed as the normal closure of the generator commutators and p-th
    powers, and its order divides |G|."""
    oracle, gens = G.oracle, G.generators
    seeds = generator_commutators(oracle, gens) + [_power(oracle, g, p) for g in gens]
    phi = normal_closure(seeds, gens, oracle, p=p)
    assert G.order % phi.order == 0, "Frattini order does not divide |G|"
    d = _log_exact(G.order // phi.order, p)
    assert d is not None, "Frattini index is not a power of p"
    return d
