"""Tests for the root lattice, Weyl action, root decision, and prenilpotency."""

import random

import pytest

from kmsylow.errors import UnknownLabel, ZeroVector
from kmsylow.gcm import validate_gcm
from kmsylow.roots import (
    IMAGINARY,
    NOT_ROOT,
    REAL,
    RootVector,
    height,
    positive_real_roots_up_to_height,
    positive_roots_up_to_height,
    root_status,
    roots_to_json,
    simple_reflection,
    simple_root,
    weyl_apply,
)
from prenilpotent import FALSE, NOT_DECIDED, TRUE, NotRealRoot, is_prenilpotent_pair
from root_simplex import simplex_roots

A2 = validate_gcm([[2, -1], [-1, 2]])
B2S = validate_gcm([[2, -1], [-2, 2]])
G2S = validate_gcm([[2, -1], [-3, 2]])
AFF = validate_gcm([[2, -2], [-2, 2]])
A1A1 = validate_gcm([[2, 0], [0, 2]])


def rv(**coords):
    return RootVector.from_coords({int(k[1:]): v for k, v in coords.items()})


def random_vector(rng, gcm, lo=-3, hi=3):
    while True:
        v = RootVector.from_coords({s: rng.randint(lo, hi) for s in gcm.labels})
        if not v.is_zero():
            return v


def test_simple_reflection_worked_examples():
    assert simple_reflection(A2, 1, simple_root(2)) == rv(n1=1, n2=1)
    for gcm in (A2, AFF, G2S):
        for s in gcm.labels:
            assert simple_reflection(gcm, s, simple_root(s)) == -simple_root(s)


def test_simple_reflection_is_involution():
    rng = random.Random(3)
    for _ in range(200):
        gcm = rng.choice([A2, B2S, G2S, AFF, A1A1])
        s = rng.choice(gcm.labels)
        v = random_vector(rng, gcm)
        assert simple_reflection(gcm, s, simple_reflection(gcm, s, v)) == v


def test_simple_reflection_changes_only_one_coordinate():
    rng = random.Random(4)
    for _ in range(200):
        gcm = rng.choice([A2, B2S, G2S, AFF])
        s = rng.choice(gcm.labels)
        v = random_vector(rng, gcm)
        w = simple_reflection(gcm, s, v)
        for t in gcm.labels:
            if t != s:
                assert w.coeff(t) == v.coeff(t)


def test_simple_reflection_unknown_label():
    with pytest.raises(UnknownLabel):
        simple_reflection(A2, 9, simple_root(1))


def test_weyl_apply_rightmost_first():
    assert weyl_apply(A2, (), rv(n1=2, n2=-1)) == rv(n1=2, n2=-1)
    assert weyl_apply(A2, (1, 2), simple_root(1)) == simple_root(2)


def test_weyl_apply_word_times_reverse_is_identity():
    rng = random.Random(5)
    for _ in range(200):
        gcm = rng.choice([A2, B2S, AFF])
        word = tuple(rng.choice(gcm.labels) for _ in range(rng.randint(0, 6)))
        v = random_vector(rng, gcm)
        assert weyl_apply(gcm, word + tuple(reversed(word)), v) == v


def test_height():
    assert height(simple_root(1)) == 1
    assert height(rv(n1=1, n2=2)) == 3
    assert height(rv(n1=-1, n2=-1)) == -2


def test_root_status_simple_roots():
    st = root_status(A2, simple_root(1))
    assert st.tag == REAL
    assert st.word == ()
    assert st.simple == 1


def test_root_status_zero_vector():
    with pytest.raises(ZeroVector):
        root_status(A2, RootVector(()))


def test_root_status_imaginary_delta():
    for k in (1, 2, 3):
        assert root_status(AFF, rv(n1=k, n2=k)).tag == IMAGINARY


def test_root_status_not_root_cases():
    assert root_status(A1A1, rv(n1=1, n2=1)).tag == NOT_ROOT
    assert root_status(A2, rv(n1=2)).tag == NOT_ROOT
    assert root_status(A2, rv(n1=1, n2=-1)).tag == NOT_ROOT
    assert root_status(A2, rv(n1=2, n2=1)).tag == NOT_ROOT


def test_root_status_real_witness_replays():
    for gcm in (A2, B2S, G2S, AFF):
        for alpha in positive_real_roots_up_to_height(gcm, 7):
            st = root_status(gcm, alpha)
            assert st.tag == REAL
            assert weyl_apply(gcm, st.word, simple_root(st.simple)) == alpha
            st_neg = root_status(gcm, -alpha)
            assert st_neg.tag == REAL
            assert weyl_apply(gcm, st_neg.word, simple_root(st_neg.simple)) == -alpha


def test_root_status_sign_symmetry():
    rng = random.Random(6)
    for _ in range(300):
        gcm = rng.choice([A2, B2S, G2S, AFF, A1A1])
        v = random_vector(rng, gcm)
        assert root_status(gcm, v).tag == root_status(gcm, -v).tag


def test_root_status_is_weyl_invariant():
    rng = random.Random(7)
    for _ in range(300):
        gcm = rng.choice([A2, B2S, G2S, AFF])
        v = random_vector(rng, gcm, lo=-2, hi=2)
        word = tuple(rng.choice(gcm.labels) for _ in range(rng.randint(0, 8)))
        assert root_status(gcm, weyl_apply(gcm, word, v)).tag == root_status(gcm, v).tag


def test_positive_real_roots_a2():
    got = positive_real_roots_up_to_height(A2, 3)
    assert got == {simple_root(1), simple_root(2), rv(n1=1, n2=1)}


def test_positive_real_roots_rank_one():
    gcm = validate_gcm([[2]])
    for bound in (1, 2, 9):
        assert positive_real_roots_up_to_height(gcm, bound) == {simple_root(1)}


def test_positive_real_roots_affine_height_five():
    got = positive_real_roots_up_to_height(AFF, 5)
    assert len(got) == 6
    assert got == {
        rv(n1=1),
        rv(n2=1),
        rv(n1=2, n2=1),
        rv(n1=1, n2=2),
        rv(n1=3, n2=2),
        rv(n1=2, n2=3),
    }


def test_finite_type_counts_stabilize():
    # positive root counts: 3, 4, 6 for the three finite-type shapes
    for gcm, count in ((A2, 3), (B2S, 4), (G2S, 6)):
        stable = positive_roots_up_to_height(gcm, 8)
        assert len(stable) == count
        assert all(tag == REAL for _, tag in stable)
        assert positive_roots_up_to_height(gcm, 12) == stable


def test_g2_shape_root_list():
    got = {alpha for alpha, _ in positive_roots_up_to_height(G2S, 6)}
    assert got == {
        rv(n1=1),
        rv(n2=1),
        rv(n1=1, n2=1),
        rv(n1=1, n2=2),
        rv(n1=1, n2=3),
        rv(n1=2, n2=3),
    }


def test_positive_roots_affine_height_four():
    got = positive_roots_up_to_height(AFF, 4)
    assert got == {
        (rv(n1=1), REAL),
        (rv(n2=1), REAL),
        (rv(n1=1, n2=1), IMAGINARY),
        (rv(n1=2, n2=2), IMAGINARY),
        (rv(n1=2, n2=1), REAL),
        (rv(n1=1, n2=2), REAL),
    }


def test_positive_roots_orthogonal_rank_two():
    got = positive_roots_up_to_height(A1A1, 4)
    assert got == {(rv(n1=1), REAL), (rv(n2=1), REAL)}


def test_enumerations_agree_on_real_subset():
    for gcm in (A2, B2S, G2S, AFF):
        for bound in (1, 3, 6):
            via_filter = {a for a, tag in positive_roots_up_to_height(gcm, bound) if tag == REAL}
            assert via_filter == positive_real_roots_up_to_height(gcm, bound)


def test_prenilpotent_simple_pair_a2():
    res = is_prenilpotent_pair(A2, simple_root(1), simple_root(2))
    assert res.verdict == TRUE
    assert res.positive_witness == ()
    assert len(res.negative_witness) == 3
    a = weyl_apply(A2, res.negative_witness, simple_root(1))
    b = weyl_apply(A2, res.negative_witness, simple_root(2))
    assert a.is_negative() and b.is_negative()


def test_prenilpotent_opposite_pair_is_false():
    for gcm in (A2, AFF, G2S):
        for s in gcm.labels:
            res = is_prenilpotent_pair(gcm, simple_root(s), -simple_root(s))
            assert res.verdict == FALSE
    alpha = rv(n1=2, n2=1)
    res = is_prenilpotent_pair(AFF, alpha, -alpha)
    assert res.verdict == FALSE


def test_prenilpotent_affine_mixed_pair():
    res = is_prenilpotent_pair(AFF, simple_root(1), -simple_root(2))
    assert res.verdict == TRUE
    for word in (res.positive_witness, res.negative_witness):
        assert word is not None
    a = weyl_apply(AFF, res.positive_witness, simple_root(1))
    b = weyl_apply(AFF, res.positive_witness, -simple_root(2))
    assert a.is_positive() and b.is_positive()
    # the pair sums to something that is not a root
    assert root_status(AFF, rv(n1=1, n2=-1)).tag == NOT_ROOT


def test_prenilpotent_affine_simple_pair_not_decided():
    # both images always sum to the invariant vector delta, so no word sends
    # both negative; the orbit is infinite, so the bounded search reports
    # NOT_DECIDED rather than guessing
    res = is_prenilpotent_pair(AFF, simple_root(1), simple_root(2))
    assert res.verdict == NOT_DECIDED
    assert res.search_bound == 2 + 2 * 2


def test_prenilpotent_rejects_non_real_input():
    with pytest.raises(NotRealRoot):
        is_prenilpotent_pair(AFF, rv(n1=1, n2=1), simple_root(1))
    with pytest.raises(NotRealRoot):
        is_prenilpotent_pair(A2, rv(n1=2), simple_root(1))


def test_roots_json_dump_sorted():
    rows = roots_to_json(AFF, positive_roots_up_to_height(AFF, 3))
    assert rows == [
        {"coords": [0, 1], "height": 1, "status": REAL},
        {"coords": [1, 0], "height": 1, "status": REAL},
        {"coords": [1, 1], "height": 2, "status": IMAGINARY},
        {"coords": [1, 2], "height": 3, "status": REAL},
        {"coords": [2, 1], "height": 3, "status": REAL},
    ]


def test_grown_roots_equal_the_simplex_filter():
    # the library grows roots by height; the helper filters every vector of
    # the height simplex, so tags and membership are checked independently
    a6 = validate_gcm([[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(6)]
                       for i in range(6)])
    a2_affine = validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    a3_affine = validate_gcm([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]])
    hyperbolic = validate_gcm([[2, -3], [-3, 2]])
    rank_three = validate_gcm([[2, -1, 0], [-2, 2, -1], [0, -3, 2]])
    for gcm, bound in ((a6, 6), (a2_affine, 7), (a3_affine, 6), (AFF, 6),
                       (hyperbolic, 7), (rank_three, 6)):
        assert positive_roots_up_to_height(gcm, bound) == simplex_roots(gcm, bound)
