"""Lookups in a built GradedLieAlgebra that no campaign check makes: the
multiplicity of a root and the basis index of a generator.  Both read the
algebra's ``by_degree`` map, so they test the build's labelling of its basis
by roots.
"""

from kmsylow.errors import HeightExceedsCutoff
from kmsylow.roots import RootVector


def root_multiplicity(algebra, alpha):
    """Number of basis elements of degree alpha; 0 for non-roots."""
    ht = sum(n for _, n in alpha.items)
    if ht > algebra.cutoff:
        raise HeightExceedsCutoff(f"height {ht} exceeds cutoff {algebra.cutoff}")
    return len(algebra.by_degree.get(alpha, ()))


def generator_index(algebra, s):
    """Basis index of the generator e_s."""
    algebra.gcm.position(s)  # raises UnknownLabel for bad input
    return algebra.by_degree[RootVector(((s, 1),))][0]
