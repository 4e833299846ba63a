"""Test helpers: matrix groups found by filtering every candidate matrix.

The Sylow subgroup is enumerated by the membership test over every matrix
of SL_m(F_q[t]/(t^k)) candidates, and its Frattini quotient dimension is
computed from a generating set picked out of that enumeration, so neither
number depends on the standard generators.  SL_m(F_q) is enumerated the same
way by its determinant alone, so it does not depend on its generators either.
"""

import numpy as np

from kmsylow.affine import AffineMatrixGroup, iwahori_sylow_membership
from kmsylow.pgroup import closure, frattini_quotient_dimension


def _candidates(group):
    """Every coefficient array of the group as one (q^(m*m*k), m, m, k)
    uint8 stack."""
    m, k, q = group.m, group.k, group.fq.q
    n = m * m * k
    codes = np.indices((q,) * n, dtype=np.uint8).reshape(n, -1).T
    return codes.reshape(-1, m, m, k)


def _det_one_keys(group, stack):
    """Keys of the matrices of a stack whose determinant is one."""
    out = set()
    for rows in stack.tolist():
        A = tuple(tuple(tuple(entry) for entry in row) for row in rows)
        if group.det(A) == group.ring.one:
            out.add(group.key(A))
    return out


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
    assert table.element_set == set(elements), "the keys are not a group"
    return frattini_quotient_dimension(table)
