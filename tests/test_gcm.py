"""Tests for GCM validation, classification, and the off-diagonal hypothesis."""

import itertools
import random

import pytest

from kmsylow.errors import (
    AsymmetricZero,
    DiagonalNotTwo,
    HypothesisViolated,
    PositiveOffDiagonal,
    UnknownLabel,
)
from kmsylow.gcm import (
    AFFINE,
    FINITE,
    INDEFINITE,
    check_off_diagonal_hypothesis,
    classify,
    connected_components,
    det_int,
    validate_gcm,
)


def det_cofactor(rows):
    # independent oracle: Laplace expansion along the first row
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def classify_block_oracle(rows):
    # direct minor test for one indecomposable block, independent of the implementation
    n = len(rows)
    minors = {}
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            minors[sub] = det_cofactor([[rows[i][j] for j in sub] for i in sub])
    full = minors[tuple(range(n))]
    proper = [v for k, v in minors.items() if len(k) < n]
    if full > 0 and all(v > 0 for v in proper):
        return FINITE
    if full == 0 and all(v > 0 for v in proper):
        return AFFINE
    return INDEFINITE


def classify_oracle(rows):
    # the minor criterion applies per diagram component; worst block wins
    n = len(rows)
    unseen = set(range(n))
    worst = FINITE
    order = {FINITE: 0, AFFINE: 1, INDEFINITE: 2}
    while unseen:
        comp = {unseen.pop()}
        frontier = list(comp)
        while frontier:
            i = frontier.pop()
            for j in list(unseen):
                if rows[i][j] != 0:
                    unseen.discard(j)
                    comp.add(j)
                    frontier.append(j)
        idx = sorted(comp)
        tag = classify_block_oracle([[rows[i][j] for j in idx] for i in idx])
        if order[tag] > order[worst]:
            worst = tag
    return worst


def test_validate_accepts_a2():
    gcm = validate_gcm([[2, -1], [-1, 2]])
    assert gcm.labels == (1, 2)
    assert gcm.a(1, 2) == -1
    assert gcm.a(2, 2) == 2


def test_validate_preserves_entries_exactly():
    rows = [[2, -7], [-1, 2]]
    gcm = validate_gcm(rows)
    assert gcm.rows == ((2, -7), (-1, 2))


def test_validate_rejects_bad_diagonal():
    with pytest.raises(DiagonalNotTwo) as exc:
        validate_gcm([[1, -1], [-1, 2]])
    assert exc.value.s == 1


def test_validate_rejects_positive_off_diagonal():
    with pytest.raises(PositiveOffDiagonal) as exc:
        validate_gcm([[2, 1], [-1, 2]])
    assert (exc.value.s, exc.value.t) == (1, 2)


def test_validate_rejects_asymmetric_zero():
    with pytest.raises(AsymmetricZero) as exc:
        validate_gcm([[2, -1], [0, 2]])
    assert (exc.value.s, exc.value.t) == (2, 1)


def test_validate_rejects_nonsquare():
    with pytest.raises(ValueError):
        validate_gcm([[2, -1]])


def test_custom_labels():
    gcm = validate_gcm([[2, -1], [-3, 2]], labels=["a", "b"])
    assert gcm.a("a", "b") == -1
    assert gcm.a("b", "a") == -3
    with pytest.raises(UnknownLabel):
        gcm.a("a", "c")


def test_det_int_matches_cofactor_oracle():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        assert det_int(rows) == det_cofactor(rows)


def test_classify_rank_one():
    assert classify(validate_gcm([[2]])).tag == FINITE


def test_classify_two_by_two_trichotomy():
    # finite iff mn <= 3, affine iff mn = 4, indefinite iff mn >= 5
    for m in range(1, 7):
        for n in range(1, 7):
            rows = [[2, -m], [-n, 2]]
            got = classify(validate_gcm(rows))
            assert got.tag == classify_oracle(rows), (m, n)
            if m * n <= 3:
                assert got.tag == FINITE
            elif m * n == 4:
                assert got.tag == AFFINE
            else:
                assert got.tag == INDEFINITE


def test_classify_affine_rank_three():
    rows = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    typ = classify(validate_gcm(rows))
    assert typ.tag == AFFINE
    assert typ.is_indecomposable


def test_classify_random_against_oracle():
    rng = random.Random(20260819)
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.6:
                    rows[i][j] = -rng.randint(1, 3)
                    rows[j][i] = -rng.randint(1, 3)
        typ = classify(validate_gcm(rows))
        assert typ.tag == classify_oracle(rows)
        for block_labels, tag in typ.blocks:
            idx = [label - 1 for label in block_labels]
            assert tag == classify_block_oracle([[rows[i][j] for j in idx] for i in idx])


def test_classification_is_permutation_invariant():
    rng = random.Random(11)
    rows = [
        [2, -1, 0, 0],
        [-1, 2, -2, 0],
        [0, -2, 2, -1],
        [0, 0, -1, 2],
    ]
    base = classify(validate_gcm(rows)).tag
    for _ in range(20):
        perm = list(range(4))
        rng.shuffle(perm)
        permuted = [[rows[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
        assert classify(validate_gcm(permuted)).tag == base


def test_components_and_indecomposability():
    rows = [
        [2, -1, 0],
        [-1, 2, 0],
        [0, 0, 2],
    ]
    gcm = validate_gcm(rows)
    assert not classify(gcm).is_indecomposable
    assert connected_components(gcm) == [(1, 2), (3,)]
    typ = classify(gcm)
    assert typ.tag == FINITE
    assert typ.blocks == (((1, 2), FINITE), ((3,), FINITE))
    # one indefinite block dominates the overall tag
    rows[0][1] = rows[1][0] = -3
    typ = classify(validate_gcm(rows))
    assert typ.tag == INDEFINITE
    assert typ.blocks[0][1] == INDEFINITE
    assert typ.blocks[1][1] == FINITE


def test_off_diagonal_hypothesis_bound():
    g2 = validate_gcm([[2, -1], [-3, 2]])
    assert check_off_diagonal_hypothesis(g2, 5) == 3
    with pytest.raises(HypothesisViolated, match="largest off-diagonal size 3"):
        check_off_diagonal_hypothesis(g2, 3)
    assert check_off_diagonal_hypothesis(validate_gcm([[2]]), 2) == 0
