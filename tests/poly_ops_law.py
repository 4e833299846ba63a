"""The BCH group law and Lie bracket compiled over copying dict polynomials.

This is how the BCH model compiled its law before it summed in place with
fields.add_scaled: every sum builds a new polynomial and leaves its inputs
alone.  It stays as the oracle that the in-place compile must reproduce term
for term.
"""

from kmsylow.bch import bch_lyndon_terms
from kmsylow.lie import standard_factorization


class PolyOps:
    """Scalar arithmetic on polynomials over F_q in the coordinate variables.

    A polynomial is a dict mapping a sorted tuple of variable indices (with
    multiplicity) to a nonzero code.
    """

    def __init__(self, fq):
        self.fq = fq

    def add(self, f, g):
        out = dict(f)
        for m, c in g.items():
            s = self.fq.add(out.get(m, 0), c)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return out

    def sub(self, f, g):
        return self.add(f, {m: self.fq.neg(c) for m, c in g.items()})

    def mul(self, f, g):
        out = {}
        fq = self.fq
        for m1, c1 in f.items():
            for m2, c2 in g.items():
                m = tuple(sorted(m1 + m2))
                s = fq.add(out.get(m, 0), fq.mul(c1, c2))
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return out

    def scale(self, c, f):
        fq = self.fq
        out = {}
        for m, cf in f.items():
            s = fq.mul(c, cf)
            if s:
                out[m] = s
        return out


def poly_ops_law(model):
    """(law terms, bracket terms) of a UnipotentModel, compiled over PolyOps
    in the format of law.PolynomialMap.terms."""
    fq, dim = model.fq, model.dim
    ops = PolyOps(fq)
    sc = {key: pairs for key, pairs in model.algebra.structure.items() if pairs}

    def bracket_vec(a, b):
        out = [{}] * dim
        for (i, j), entries in sc.items():
            term = ops.sub(ops.mul(a[i], b[j]), ops.mul(a[j], b[i]))
            if term:
                for k, c in entries:
                    out[k] = ops.add(out[k], ops.scale(c, term))
        return out

    x = [{(i,): 1} for i in range(dim)]
    y = [{(dim + i,): 1} for i in range(dim)]
    values = {(0,): x, (1,): y}

    def word_value(word):
        if word not in values:
            u, v = standard_factorization(word)
            values[word] = bracket_vec(word_value(u), word_value(v))
        return values[word]

    law = [{}] * dim
    for word, coeff in bch_lyndon_terms(model.cutoff):
        c = fq.from_fraction(coeff)
        v = word_value(word)
        for k in range(dim):
            if v[k]:
                law[k] = ops.add(law[k], ops.scale(c, v[k]))

    def split(polys):
        def term(m, c):
            return c, tuple(v for v in m if v < dim), tuple(v - dim for v in m if v >= dim)

        return tuple(tuple(term(m, c) for m, c in sorted(p.items())) for p in polys)

    return split(law), split(bracket_vec(x, y))
