"""Test oracle: the rank-1 commutator identity checked one case at a time.

Each case builds its two elementaries as keys, forms [x, y] by three scalar
products of the law and two scalar inverses, and compares the key with the
closed form written entry by entry in scalar field arithmetic.  The oracle
shares no bulk product, no row array and no closed-form table with
kmsylow.affine.commutator_identity_check, only the group's scalar oracle.
"""

from functools import lru_cache

from kmsylow.affine import AffineMatrixGroup
from kmsylow.errors import TruncationTooShallow
from kmsylow.pgroup import commutator


@lru_cache(maxsize=1)
def _group(fq, K):
    """The group of SL_2 over F_q[t]/(t^K), kept for the next case: a group
    builds its oracle on first use, and the cases of one ring share it."""
    return AffineMatrixGroup(2, fq, K)


def scalar_commutator_identity_check(fq, r_val, s_val, m_exp, n_exp, K):
    """[1 + r t^m E12, 1 + s t^n E21] in SL_2 over F_q[t]/(t^K) against
    [[1 + u + u^2, -r^2 s t^(2m+n)], [r s^2 t^(m+2n), 1 - u]], u = r s t^(m+n),
    for one case."""
    if K <= 3 * max(m_exp, n_exp):
        raise TruncationTooShallow(
            f"need K > {3 * max(m_exp, n_exp)} to keep every displayed entry"
        )
    group = _group(fq, K)
    x = group.elementary(0, 1, r_val, m_exp)
    y = group.elementary(1, 0, s_val, n_exp)
    rs = fq.mul(r_val, s_val)
    rhs = bytearray(group.identity)
    for i, j, d, code in (
        (0, 0, m_exp + n_exp, rs),
        (0, 0, 2 * (m_exp + n_exp), fq.mul(rs, rs)),
        (0, 1, 2 * m_exp + n_exp, fq.neg(fq.mul(rs, r_val))),
        (1, 0, m_exp + 2 * n_exp, fq.mul(rs, s_val)),
        (1, 1, m_exp + n_exp, fq.neg(rs)),
    ):
        if d < K:
            at = (i * 2 + j) * K + d
            rhs[at] = fq.add(rhs[at], code)
    return commutator(group.oracle(), x, y) == bytes(rhs)
