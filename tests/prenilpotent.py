"""Prenilpotency of a pair of real roots, by a bounded search of the
diagonal Weyl action on the pair.

No campaign check asks for it, so it lives with the tests as an oracle over
the roots module's Weyl action and root decision.
"""

from dataclasses import dataclass

from kmsylow.errors import KmError
from kmsylow.roots import REAL, height, root_status, simple_reflection


class NotRealRoot(KmError):
    """A root of the pair is not a real root."""


TRUE = "true"
FALSE = "false"
NOT_DECIDED = "not_decided"


@dataclass(frozen=True)
class PrenilpotencyResult:
    """Three-valued answer with certificates.

    TRUE carries a word sending both roots positive and a word sending both
    negative.  FALSE carries either the closed finite pair-orbit in which no
    qualifying word exists, or (for an exact opposite pair) the algebraic
    reason.  NOT_DECIDED means the search bound was exhausted first and is
    never downgraded to FALSE.
    """

    verdict: str
    positive_witness: tuple = None
    negative_witness: tuple = None
    closed_orbit: frozenset = None
    reason: str = None
    search_bound: int = None


def default_search_bound(gcm, alpha, beta):
    return abs(height(alpha)) + abs(height(beta)) + 2 * gcm.size


def is_prenilpotent_pair(gcm, alpha, beta, search_bound=None):
    """Decide whether some w makes both roots positive and some w' both negative.

    Breadth-first search on the diagonal Weyl action on the pair, memoizing
    visited pairs.  The orbit closing without both certificates refutes;
    hitting the depth bound returns NOT_DECIDED.  The exact opposite pair is
    refuted directly: w(-alpha) = -w(alpha) can never be positive alongside
    w(alpha).
    """
    for v in (alpha, beta):
        if root_status(gcm, v).tag != REAL:
            raise NotRealRoot(f"{dict(v.items)!r} is not a real root")
    if search_bound is None:
        search_bound = default_search_bound(gcm, alpha, beta)
    if beta == -alpha:
        return PrenilpotencyResult(
            verdict=FALSE,
            reason="opposite roots: images under any word are negatives of each other",
            search_bound=search_bound,
        )

    start = (alpha, beta)
    seen = {start: ()}
    frontier = [start]
    pos_witness = None
    neg_witness = None

    def check(pair, word):
        nonlocal pos_witness, neg_witness
        a, b = pair
        if pos_witness is None and a.is_positive() and b.is_positive():
            pos_witness = word
        if neg_witness is None and a.is_negative() and b.is_negative():
            neg_witness = word

    check(start, ())
    depth = 0
    while frontier and (pos_witness is None or neg_witness is None):
        if depth >= search_bound:
            return PrenilpotencyResult(verdict=NOT_DECIDED, search_bound=search_bound)
        nxt = []
        for pair in frontier:
            word = seen[pair]
            for s in gcm.labels:
                moved = (
                    simple_reflection(gcm, s, pair[0]),
                    simple_reflection(gcm, s, pair[1]),
                )
                if moved not in seen:
                    seen[moved] = (s,) + word
                    check(moved, seen[moved])
                    nxt.append(moved)
        frontier = nxt
        depth += 1
    if pos_witness is not None and neg_witness is not None:
        return PrenilpotencyResult(
            verdict=TRUE,
            positive_witness=pos_witness,
            negative_witness=neg_witness,
            search_bound=search_bound,
        )
    # orbit closed with a certificate missing: certified refutation
    return PrenilpotencyResult(
        verdict=FALSE,
        closed_orbit=frozenset(seen),
        reason="pair orbit closed without a simultaneous positive and negative image",
        search_bound=search_bound,
    )
