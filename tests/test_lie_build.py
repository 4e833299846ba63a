"""The graded build of the truncated positive part against the Lyndon-word
build of tests/lyndon_build.py, an isomorphism checked degree by degree."""

import glob
import json
import os

import pytest

from kmsylow.cli import DEFAULT_CAMPAIGN
from kmsylow.fields import QQ, FqConfig, rref
from kmsylow.gcm import validate_gcm
from kmsylow.lie import bracket, build_positive_part, standard_factorization

from lie_lookup import generator_index
from lyndon_build import lyndon_build

HERE = os.path.dirname(__file__)
A2 = [[2, -1], [-1, 2]]
B2S = [[2, -1], [-2, 2]]
G2S = [[2, -1], [-3, 2]]
C2S = [[2, -2], [-1, 2]]
AFF = [[2, -2], [-2, 2]]
AFF3 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
AFF4 = [[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
NON_SYMMETRIZABLE = [[2, -1, 0], [-2, 2, -1], [0, -3, 2]]
RELATION_FREE = [[2, -9], [-9, 2]]  # every Serre element above height 10

# the oracle's cost follows the free Lie algebra: it takes seconds on these
# pairs (0.8 s already on A2^(1) at H = 8, 30-50 s at H = 10), so they are
# compared lower; their builds at full height are pinned by the stored
# reports tests/data/lie_heights.json and tests/data/bch_frontier.json
ORACLE_HEIGHT = {
    (json.dumps(AFF3), 9): 7,
    (json.dumps(AFF3), 10): 7,
    (json.dumps(AFF4), 7): 6,
}


def _pairs():
    """Every (GCM, H) that the tests and campaigns build an algebra for."""
    found = {
        (json.dumps(gcm), H)
        for gcm, H in [
            (A2, 1), (A2, 3), (A2, 4), (A2, 6), (B2S, 4), (B2S, 6), (G2S, 4),
            (G2S, 5), (G2S, 6), (C2S, 3), (AFF, 4), (AFF, 5), (AFF, 6),
            (AFF, 9), (AFF3, 4), (AFF3, 5), (A4, 4), ([[2]], 3),
            (NON_SYMMETRIZABLE, 7), (RELATION_FREE, 5), (RELATION_FREE, 7),
        ]
    }
    campaigns = [DEFAULT_CAMPAIGN]
    for path in sorted(
        glob.glob(f"{HERE}/../bench/campaigns/*.json")
        + glob.glob(f"{HERE}/campaigns/*.json")
    ):
        with open(path) as fh:
            campaigns.append(json.load(fh))
    for campaign in campaigns:
        for inst in campaign["instances"]:
            if inst["model"] == "bch" and {"lie", "theorem1"} & set(inst["checks"]):
                found.add((json.dumps(inst["gcm"]), inst["H"]))
    return sorted({(gcm, ORACLE_HEIGHT.get((gcm, H), H)) for gcm, H in found})


CASES = [
    pytest.param(gcm, H, fld, id=f"{gcm}-H{H}-{fld.char}")
    for gcm, H in _pairs()
    for fld in [QQ] + [FqConfig(p) for p in (5, 7, 11, 13) if p > H]
]


def _standard_bracketings(algebra, words):
    """Each Lyndon word's standard bracketing in the algebra, as a sparse
    vector over its basis."""
    labels = algebra.gcm.labels
    one = algebra.field.one
    memo = {}

    def image(word):
        got = memo.get(word)
        if got is None:
            if len(word) == 1:
                got = {generator_index(algebra, labels[word[0]]): one}
            else:
                u, v = standard_factorization(word)
                got = bracket(algebra, image(u), image(v))
            memo[word] = got
        return got

    return [image(w) for w in words]


@pytest.mark.parametrize("gcm,H,fld", CASES)
def test_graded_build_is_isomorphic_to_the_lyndon_build(gcm, H, fld):
    gcm = validate_gcm(json.loads(gcm))
    want = lyndon_build(gcm, H, fld)
    got = build_positive_part(gcm, H, fld)
    # the same roots at the same indices, so the same pairs have constants
    assert [b.root for b in got.basis] == [b.root for b in want.basis]
    assert set(got.structure) == set(want.structure)

    # phi sends each oracle basis element, a Lyndon word, to its standard
    # bracketing in the graded build; it is invertible in every multidegree
    phi = _standard_bracketings(got, [b.word for b in want.basis])
    for alpha, indices in want.by_degree.items():
        columns = {k: c for c, k in enumerate(got.by_degree[alpha])}
        rows = []
        for i in indices:
            assert {got.basis[k].root for k in phi[i]} <= {alpha}
            row = [fld.zero] * len(columns)
            for k, c in phi[i].items():
                row[columns[k]] = c
            rows.append(row)
        assert len(rref(rows, fld)[1]) == len(columns) == len(indices)

    # and it carries every oracle bracket to the graded build's
    for (i, j), pairs in want.structure.items():
        image = {}
        for k, c in pairs:
            for idx, v in phi[k].items():
                s = fld.add(image.get(idx, fld.zero), fld.mul(c, v))
                if s == fld.zero:
                    image.pop(idx, None)
                else:
                    image[idx] = s
        assert bracket(got, phi[i], phi[j]) == image


def test_basis_elements_are_left_normed_brackets_of_their_words():
    # the earliest symbols stay independent, so height 2 is [e_s, e_t] with
    # s < t, and each basis element is [...[e_s1, e_s2], ..., e_sk]
    for gcm, H in ((AFF4, 5), (NON_SYMMETRIZABLE, 6), (RELATION_FREE, 5)):
        algebra = build_positive_part(validate_gcm(gcm), H)
        labels, one = algebra.gcm.labels, algebra.field.one
        for i in algebra.by_height[2]:
            s, t = algebra.basis[i].word
            assert s < t
        for b in algebra.basis:
            vec = {generator_index(algebra, labels[b.word[0]]): one}
            for s in b.word[1:]:
                vec = bracket(algebra, vec, {generator_index(algebra, labels[s]): one})
            assert vec == {b.index: one}
