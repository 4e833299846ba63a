"""Test helper: positive roots found by filtering the whole height simplex.

Every integer vector with nonnegative coordinates and height from 1 to the
bound goes through ``root_status``, so the result does not depend on how the
library grows its roots from the simple ones.  Exponential in the rank.
"""

from itertools import product

from kmsylow.roots import NOT_ROOT, RootVector, root_status


def simplex_roots(gcm, bound):
    """All positive roots of height <= bound, as (vector, tag) pairs."""
    labels = gcm.labels
    out = set()
    for combo in product(range(bound + 1), repeat=len(labels)):
        if not 1 <= sum(combo) <= bound:
            continue
        alpha = RootVector.from_coords(dict(zip(labels, combo)))
        tag = root_status(gcm, alpha).tag
        if tag != NOT_ROOT:
            out.add((alpha, tag))
    return out
