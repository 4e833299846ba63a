"""Named defects, each planted in one part of the program by a context
manager that puts the part back on exit.  A campaign check that reads the
part should then fail, and end in a verdict, not a traceback."""

import contextlib

from kmsylow import affine
from kmsylow.law import PolynomialMap, law_oracle
from kmsylow.unipotent import UnipotentModel


@contextlib.contextmanager
def matrix_product_drops_a_term():
    """The matrix law: entry (0, 0) of every product loses its last term in
    degree 0, A[0, m-1] B[m-1, 0].  The product is then no group law, and
    right multiplication by some elements stops being injective.  Expected
    to be caught by the tits check."""
    real = affine._matrix_oracle

    def defective(m, fq, k, identity):
        oracle = real(m, fq, k, identity)
        terms = (oracle.mul.terms[0][:-1],) + oracle.mul.terms[1:]
        return law_oracle(fq, identity, PolynomialMap(fq, terms), oracle.inv)

    affine._matrix_oracle = defective
    try:
        yield
    finally:
        affine._matrix_oracle = real


@contextlib.contextmanager
def bch_law_drops_a_term():
    """The BCH law: its last coordinate, of the top height, loses its last
    term, the right factor's own coordinate there, so every product forgets
    the top coordinate of its right factor.  The product is then no group
    law, and the layered engine meets a sift whose level does not rise: it
    raises NotAFiltration, which the campaign reports as a failed check."""
    real = UnipotentModel.oracle

    def defective(model):
        oracle = real(model)
        terms = oracle.mul.terms[:-1] + (oracle.mul.terms[-1][:-1],)
        return law_oracle(model.fq, oracle.identity, PolynomialMap(model.fq, terms), oracle.inv)

    UnipotentModel.oracle = defective
    try:
        yield
    finally:
        UnipotentModel.oracle = real


# every named defect above
DEFECTS = (matrix_product_drops_a_term, bch_law_drops_a_term)
