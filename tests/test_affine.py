"""Tests for the truncated-polynomial matrix Sylow model."""

import gc
import glob
import itertools
import json
import os
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from kmsylow import affine, cli, pgroup
from kmsylow.affine import (
    AffineMatrixGroup,
    IwahoriSylow,
    affine_cartan_matrix,
    borel_subgroup,
    commutator_identity_check,
    congruence_subgroup,
    enumerate_special_linear,
    iwahori_level,
    iwahori_sylow_membership,
    monomial_subgroup,
    special_linear_order,
    sylow_generators,
    sylow_order,
    sylow_table,
    verify_generation,
    verify_theorem1_affine,
)
from kmsylow.cli import DEFAULT_CAMPAIGN, run_campaign
from kmsylow.errors import (
    EnumerationCapExceeded,
    HypothesisViolated,
    NotAFiltration,
    TruncationTooShallow,
)
from kmsylow.fields import FqConfig
from kmsylow.gcm import check_off_diagonal_hypothesis
from kmsylow.law import key_rows, row_keys
from kmsylow.pgroup import (
    BITMAP_CODES,
    DEFAULT_CAP,
    SCAN_BLOCK,
    FrattiniCount,
    check_filtration_lemma,
    closure,
    commutator,
    layered_order,
)

from breadth_first import assert_closures_agree
from commutator_scalar import scalar_commutator_identity_check
from coset_probe import assert_same_indices
from derived_series import derived_subgroup
from filtration_scan import assert_filtration_reports_agree
from frattini_stream import (
    _sorted,
    assert_streamed_frattini_agrees,
    recorded_streams,
    streamed_stages,
)
from membership_paths import assert_membership_paths_agree
from sylow_scan import assert_streamed_listing_agrees, conjugated_sylow
from sylow_enumeration import (
    brute_force_special_linear,
    brute_force_sylow,
    det,
    frattini_dimension_of,
    frattini_quotient_dimension,
    inverse,
    key_of,
    matrix_mul,
    matrix_of,
)

F2 = FqConfig(2)
F3 = FqConfig(3)
F4 = FqConfig(2, 2)
F9 = FqConfig(3, 2)


def _array(group, key):
    return key_rows([key], group.width).reshape(group.m, group.m, group.k)


def test_matrix_inverse():
    table = IwahoriSylow(2, F3, 3, DEFAULT_CAP).table
    oracle = table.oracle
    rng = random.Random(11)
    for _ in range(60):
        key = table.elements[rng.randrange(table.order)]
        assert oracle.mul(key, oracle.inv(key)) == oracle.identity
        assert oracle.mul(oracle.inv(key), key) == oracle.identity


def _assert_matches_reference(group, keys):
    # every key against every right factor, one scalar and one bulk call
    fq, oracle = group.fq, group.oracle()
    matrices = [matrix_of(group, key) for key in keys]
    for key, A in zip(keys, matrices):
        assert oracle.inv(key) == key_of(inverse(fq, A))
    for g, B in zip(keys, matrices):
        want = [key_of(matrix_mul(fq, A, B)) for A in matrices]
        assert [oracle.mul(key, g) for key in keys] == want
        assert row_keys(oracle.mul_many(key_rows(keys, group.width), g)) == want


def _reference_words(group, letters, rng, n, length):
    """n products of random letters, each formed by the schoolbook product."""
    out = []
    for _ in range(n):
        A = matrix_of(group, group.identity)
        for _ in range(length):
            A = matrix_mul(group.fq, A, matrix_of(group, rng.choice(letters)))
        out.append(key_of(A))
    return out


@pytest.mark.parametrize("m,fq,k", [(2, F9, 3), (3, F3, 2), (3, F2, 2)])
def test_law_and_inverse_match_schoolbook_on_random_sylow_elements(m, fq, k):
    # root elementaries 1 + c t^d E_ij of the Sylow, d >= 1 below the diagonal
    group = AffineMatrixGroup(m, fq, k)
    roots = [
        group.elementary(i, j, c, d)
        for i in range(m)
        for j in range(m)
        if i != j
        for d in range(i > j, k)
        for c in range(1, fq.q)
    ]
    keys = _reference_words(group, roots, random.Random(m * fq.q * k), 24, 3 * m * m)
    _assert_matches_reference(group, keys)


def test_law_and_inverse_match_schoolbook_on_generator_products():
    group = AffineMatrixGroup(4, F3, 3)
    gens = sylow_generators(4, F3, 3)
    keys = _reference_words(group, gens, random.Random(43), 16, 40)
    _assert_matches_reference(group, keys)


@pytest.mark.parametrize(
    "m,fq", [(2, F3), (3, F2), (2, F4)], ids=["sl2f3", "sl3f2", "sl2f4"]
)
def test_law_and_inverse_match_schoolbook_on_all_of_sl(m, fq):
    # most of these elements are not p-elements
    group = AffineMatrixGroup(m, fq, 1)
    _assert_matches_reference(group, sorted(brute_force_special_linear(m, fq)))


def test_matrix_law_is_built_once_per_group():
    # a group builds its oracle, bulk hook included, on first use and keeps
    # it; another group of the same ring builds its own, and an oracle goes
    # with the group that built it, so none outlives a campaign instance
    group = AffineMatrixGroup(2, F9, 13)
    first = group.oracle()
    assert group.oracle() is first
    other = AffineMatrixGroup(2, F9, 13).oracle()
    assert other.mul is not first.mul and other.mul_many is not first.mul_many
    gone = weakref.ref(first)
    del group, first
    gc.collect()
    assert gone() is None


def test_membership_examples():
    group = AffineMatrixGroup(2, F2, 2)
    assert iwahori_sylow_membership(group, _array(group, group.identity))
    lower_const = group.elementary(1, 0, 1)
    assert not iwahori_sylow_membership(group, _array(group, lower_const))
    lower_t = group.elementary(1, 0, 1, 1)
    assert iwahori_sylow_membership(group, _array(group, lower_t))


@pytest.mark.parametrize("k, members", [(1, 6), (2, 81)])
def test_membership_on_a_stack_matches_each_matrix(k, members):
    # SL_2(F_3) at k = 1 and the (2, F_3, 2) Sylow at k = 2, each followed
    # by its products with a lower constant elementary; mod t the members
    # are the 3 unipotent upper-triangular matrices and their products
    group = AffineMatrixGroup(2, F3, k)
    if k == 1:
        _, table = enumerate_special_linear(2, F3)
    else:
        table = IwahoriSylow(2, F3, k, DEFAULT_CAP).table
    oracle = table.oracle
    lower = group.elementary(1, 0, 1)
    keys = list(table.elements) + [oracle.mul(key, lower) for key in table.elements]
    stack = key_rows(keys, group.width).reshape(-1, 2, 2, k)
    got = iwahori_sylow_membership(group, stack)
    want = [iwahori_sylow_membership(group, _array(group, key)) for key in keys]
    assert got.shape == (len(keys),)
    assert got.tolist() == [bool(w) for w in want]
    assert sum(want) == members


def test_sylow_generators_shape():
    for m, fq, k in [(2, F2, 2), (2, F9, 2), (3, F2, 3)]:
        gens = sylow_generators(m, fq, k)
        assert len(gens) == m * fq.r
        group = AffineMatrixGroup(m, fq, k)
        for A in gens:
            assert det(fq, matrix_of(group, A)) == [1] + [0] * (k - 1)
            assert iwahori_sylow_membership(group, _array(group, A))


def test_sylow_generators_q2_explicit():
    group = AffineMatrixGroup(2, F2, 2)
    gens = sylow_generators(2, F2, 2)
    upper = group.elementary(0, 1, 1)
    corner = group.elementary(1, 0, 1, 1)
    assert gens == [upper, corner]


def test_sylow_order_values():
    assert sylow_order(2, F2, 2) == 16
    assert sylow_order(2, F2, 1) == 2
    assert sylow_order(2, F3, 3) == 2187
    assert sylow_order(3, F2, 2) == 2048


@pytest.mark.parametrize(
    "m,fq,k", [(2, F2, 2), (2, F2, 3), (2, F3, 2)], ids=["222", "223", "232"]
)
def test_membership_set_count_matches_formula(m, fq, k):
    assert len(brute_force_sylow(m, fq, k)) == sylow_order(m, fq, k)


def test_closure_matches_brute_force():
    table = sylow_table(IwahoriSylow(2, F3, 2, DEFAULT_CAP))
    assert set(table.elements) == brute_force_sylow(2, F3, 2)


def test_verify_generation():
    # generation needs p above the largest off-diagonal Cartan entry;
    # for 2x2 that entry is 2, so q = 2 instances genuinely fail (q = 4
    # breaks the hypothesis too, yet its generators do generate)
    for m, fq, k in [(2, F3, 2), (2, F3, 3), (3, F2, 2)]:
        assert verify_generation(IwahoriSylow(m, fq, k, DEFAULT_CAP))


def test_generation_fails_in_characteristic_two_for_m2():
    # index of the generated subgroup grows with k: the pro-2 group behind
    # these truncations is not generated by the m*r standard elements
    for k, closure_order in [(2, 8), (3, 16), (4, 16)]:
        oracle = AffineMatrixGroup(2, F2, k).oracle()
        gens = sylow_generators(2, F2, k)
        table = closure(gens, oracle, p=2)
        assert table.order == closure_order < sylow_order(2, F2, k)
        assert not verify_generation(IwahoriSylow(2, F2, k, DEFAULT_CAP))
        assert set(table.elements) < brute_force_sylow(2, F2, k)


def test_frattini_dimension_refused_when_generators_fall_short():
    # the closure has d = 2 = m*r, which would pass for a confirmation, so
    # theorem 1 refuses to report it; the Sylow itself, enumerated by
    # membership, has d = 3, 4, 4
    for k, d in [(2, 3), (3, 4), (4, 4)]:
        sylow = IwahoriSylow(2, F2, k, DEFAULT_CAP)
        with pytest.raises(HypothesisViolated, match="off-diagonal size 2"):
            verify_theorem1_affine(sylow)
        assert not verify_generation(sylow)
        members = brute_force_sylow(2, F2, k)
        oracle = AffineMatrixGroup(2, F2, k).oracle()
        assert frattini_dimension_of(members, oracle, 2) == d


def test_dropping_corner_generator_loses_elements():
    # with test_verify_generation, pins both halves of every instance that
    # acceptance criterion 7 reports as generated
    for m, fq, k in [(2, F3, 2), (2, F3, 3), (3, F2, 2)]:
        group = AffineMatrixGroup(m, fq, k)
        gens = sylow_generators(m, fq, k)
        partial = closure(gens[: -fq.r], group.oracle(), p=fq.p)
        assert partial.order < sylow_order(m, fq, k)


def test_verify_generation_cap():
    sylow = IwahoriSylow(3, F3, 3, 1000)
    with pytest.raises(EnumerationCapExceeded, match="Sylow order 1162261467 exceeds the cap of 1000"):
        verify_generation(sylow)
    # refused before the table was listed
    assert "table" not in vars(sylow)


def test_iwahori_sylow_lists_its_table_on_first_use_only():
    sylow = IwahoriSylow(2, F3, 2, DEFAULT_CAP)
    assert sylow.order == sylow_order(2, F3, 2) == 81
    # the Frattini count lists Phi, not the Sylow
    phi, index = sylow.frattini
    assert (phi.order, index) == (9, 9)
    assert "table" not in vars(sylow)
    table = sylow.table
    assert verify_generation(sylow) and sylow.table is table
    # the layered order of the closure refuses it before any product
    with pytest.raises(EnumerationCapExceeded, match="subgroup order 81 exceeds the cap of 80"):
        IwahoriSylow(2, F3, 2, 80).table


def _columns_from_level(m, k, least):
    """The key columns (i, j, d) of level at least least: those in which a
    closure inside the level-least subgroup can vary."""
    return sum(
        iwahori_level(m, i, j, d) >= least
        for i in range(m)
        for j in range(m)
        for d in range(k)
    )


def _prime_powers(top):
    return [
        q
        for q in range(2, top + 1)
        if len([p for p in range(2, q + 1) if q % p == 0 and all(p % d for d in range(2, p))]) == 1
    ]


def test_every_code_space_under_the_default_cap_fits_the_bitmap():
    # the Sylow (levels >= 1) and I_2 (levels >= 2, Phi) vary in their
    # columns of those levels, and have q^(k - 1) fewer elements than codes:
    # one F_q condition on det for each degree d >= 1, whose diagonal
    # coefficients are of level m d >= 2.  Each of them whose order fits
    # the default cap, for m = 2..5, q <= 256 and k <= 9, codes its members
    # in at most BITMAP_CODES codes; the largest is 17^7, Phi of (2, 17, 3).
    # SL_m(F_q), listed for the Tits check, varies in all m^2 columns: at
    # most 2^28 codes, for SL_2(F_128)
    prime_powers = _prime_powers(256)
    spaces = []
    for m, k, least in itertools.product(range(2, 6), range(1, 10), (1, 2)):
        columns = _columns_from_level(m, k, least)
        spaces += [
            (q ** columns, (m, q, k, least))
            for q in prime_powers
            if q ** (columns - (k - 1)) <= DEFAULT_CAP
        ]
    assert max(spaces) == (17 ** 7, (2, 17, 3, 2)) and 17 ** 7 <= BITMAP_CODES
    special_linear = []
    for m in range(2, 6):
        for q in prime_powers:
            if special_linear_order(m, FqConfig.from_q(q)) > DEFAULT_CAP:
                break
            special_linear.append((q ** (m * m), (m, q)))
    assert max(special_linear) == (2 ** 28, (2, 128)) and 2 ** 28 <= BITMAP_CODES


@pytest.mark.parametrize(
    "m,q,k", [(2, 3, 3), (3, 3, 2), (2, 5, 2), (2, 4, 2), (2, 3, 4)]
)
def test_closures_vary_in_the_columns_of_their_levels(m, q, k):
    # the code spaces of the bound above are those of real closures: the
    # Sylow's table varies in its columns of level >= 1, and Phi, of order
    # q^(k - 1) fewer than its codes, in those of level >= 2
    sylow = IwahoriSylow(m, FqConfig.from_q(q), k, DEFAULT_CAP)
    phi, _ = sylow.frattini
    assert sylow.table.members.space == q ** _columns_from_level(m, k, 1)
    assert phi.members.space == q ** _columns_from_level(m, k, 2)
    assert phi.order * q ** (k - 1) == phi.members.space


@pytest.mark.parametrize("m,k", [(2, 2), (3, 1)])
def test_bitmap_and_key_set_closures_agree(m, k):
    # the Iwahori Sylow and, for the Tits check, SL_m(F_3) itself
    oracle = AffineMatrixGroup(m, F3, k).oracle()
    assert_membership_paths_agree(oracle, sylow_generators(m, F3, k), 3)
    group, table = enumerate_special_linear(m, F3)
    assert_membership_paths_agree(group.oracle(), table.generators, 3)


CAMPAIGNS = os.path.join(os.path.dirname(__file__), "..", "bench", "campaigns")


def matrix_sylow_instances():
    """(m, q, k) of every Iwahori Sylow that the tests or the campaigns
    list, as far as it fits the default cap."""
    found = {
        (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 2), (2, 3, 3), (2, 3, 4), (3, 2, 2)
    }
    campaigns = [DEFAULT_CAMPAIGN]
    for path in sorted(glob.glob(f"{CAMPAIGNS}/*.json")):
        with open(path) as fh:
            campaigns.append(json.load(fh))
    for campaign in campaigns:
        for inst in campaign["instances"]:
            if inst["model"] == "affine" and "k" in inst:
                found.add((inst["m"], inst["q"], inst["k"]))
    return sorted(
        (m, q, k)
        for m, q, k in found
        if sylow_order(m, FqConfig.from_q(q), k) <= DEFAULT_CAP
    )


@pytest.mark.parametrize("m,q,k", matrix_sylow_instances())
def test_dimino_and_breadth_first_closures_agree(m, q, k):
    fq = FqConfig.from_q(q)
    oracle = AffineMatrixGroup(m, fq, k).oracle()
    assert_closures_agree(sylow_generators(m, fq, k), oracle, fq.p)


@pytest.mark.parametrize("m,q,k", matrix_sylow_instances())
def test_dimino_and_probe_coset_counts_agree(m, q, k):
    # the Frattini and derived subgroups, and the closures of the first
    # standard generator and of every other one, which need not be normal
    fq = FqConfig.from_q(q)
    oracle = AffineMatrixGroup(m, fq, k).oracle()
    gens = sylow_generators(m, fq, k)
    G = closure(gens, oracle, p=fq.p)
    subgroups = [FrattiniCount(gens, oracle, fq.p).index()[0], derived_subgroup(G, fq.p)]
    subgroups += [closure(gens[:1], oracle), closure(gens[::2], oracle)]
    assert assert_same_indices(subgroups, gens, oracle, G.order) >= 1


@pytest.mark.parametrize("m,q,k", matrix_sylow_instances())
def test_frattini_count_matches_table_division(m, q, k):
    # theorem 1's coset count against the slower way, which lists the
    # closure of the standard generators and divides its order by |Phi|;
    # generation against the membership scan of the listed closure
    fq = FqConfig.from_q(q)
    sylow = IwahoriSylow(m, fq, k, DEFAULT_CAP)
    phi, index = sylow.frattini
    G = sylow_table(sylow)
    assert index == fq.p ** frattini_quotient_dimension(G, fq.p)
    assert phi.order == G.order // index
    assert (phi.order * index == sylow.order) is verify_generation(sylow)


@pytest.mark.parametrize("m,q,k", matrix_sylow_instances())
def test_layered_orders_equal_the_enumerated_orders(m, q, k):
    # the layered engine on the level filtration against unsized
    # enumeration: the closure of the standard generators and Phi
    fq = FqConfig.from_q(q)
    sylow = IwahoriSylow(m, fq, k, DEFAULT_CAP)
    oracle = sylow.group.oracle()
    G = closure(sylow.generators, oracle, p=fq.p)
    phi, index = FrattiniCount(sylow.generators, oracle, fq.p).index()
    assert sylow.count.order == G.order == phi.order * index
    assert sylow.count.frattini_order == phi.order


@pytest.mark.parametrize("m,q,k", matrix_sylow_instances() + [(3, 5, 2), (2, 5, 4)])
def test_streamed_frattini_count_agrees_with_phi_listed_in_full(m, q, k):
    # every Sylow under the cap, and two past it whose Phi fits
    fq = FqConfig.from_q(q)
    sylow = IwahoriSylow(m, fq, k, DEFAULT_CAP)
    oracle = sylow.group.oracle()
    assert_streamed_frattini_agrees(sylow.generators, oracle, fq.p, sylow.lead, q)


@pytest.mark.parametrize("m,q,k", [(3, 5, 2), (2, 5, 4)])
def test_layered_orders_past_the_sylow_cap_equal_the_frattini_count(m, q, k):
    # Sylows over the default cap whose Phi and index fit under it
    fq = FqConfig.from_q(q)
    sylow = IwahoriSylow(m, fq, k, DEFAULT_CAP)
    phi, index = FrattiniCount(sylow.generators, sylow.group.oracle(), fq.p).index()
    assert sylow.order > DEFAULT_CAP
    assert sylow.count.order == phi.order * index == sylow.order
    assert sylow.count.frattini_order == phi.order


def test_layered_order_at_q2_is_that_of_the_smaller_closure():
    # the standard generators miss part of the Sylow at q = 2, and the
    # layered order is that of their closure, not the Sylow's
    orders = [IwahoriSylow(2, F2, k, DEFAULT_CAP) for k in (2, 3)]
    assert [(s.count.order, s.order) for s in orders] == [(8, 16), (16, 128)]
    assert [s.table.order for s in orders] == [8, 16]


@pytest.mark.parametrize("m,q,k", matrix_sylow_instances())
def test_a_closure_sized_by_its_order_lists_the_unsized_rows(m, q, k):
    # the layered order as sylow_table passes it, and orders too small and
    # too large, which may change a refusal but no element listed
    fq = FqConfig.from_q(q)
    sylow = IwahoriSylow(m, fq, k, DEFAULT_CAP)
    gens, oracle = sylow.generators, sylow.group.oracle()
    unsized = closure(gens, oracle, p=fq.p)
    for order in (sylow.count.order, unsized.order // fq.p, 2 * unsized.order):
        sized = closure(gens, oracle, p=fq.p, order=order)
        assert np.array_equal(sized.rows, unsized.rows)
    # the Sylow's own listing is read as it streams, and a streamed table
    # decodes its rows in code order
    assert np.array_equal(_sorted(sylow.table.rows), _sorted(unsized.rows))


@pytest.mark.parametrize("m,q,k", [(2, 3, 3), (2, 9, 2), (3, 2, 2), (3, 3, 2)])
def test_level_lead_of_the_sylow(m, q, k):
    # every standard generator has level 1 and every listed element level
    # at least 1; on one level the lead adds: the digits of g h are those
    # of g plus those of h, and where those cancel g h lies deeper
    fq = FqConfig.from_q(q)
    sylow = IwahoriSylow(m, fq, k, DEFAULT_CAP)
    lead, oracle = sylow.lead, sylow.group.oracle()
    assert all(lead(g)[0] == 1 for g in sylow.generators)
    rows = sylow.table.rows[1:]
    if len(rows) > 3000:
        rows = rows[np.random.default_rng(5).choice(len(rows), 3000, replace=False)]
    by_level = {}
    for key in row_keys(rows):
        level, digits = lead(key)
        assert 1 <= level <= m * k - 1 and any(digits)
        by_level.setdefault(level, []).append((key, digits))
    rng = random.Random(7)
    pairs = 0
    for level, members in by_level.items():
        for _ in range(20):
            (g, a), (h, b) = rng.choice(members), rng.choice(members)
            total = [(x + y) % fq.p for x, y in zip(a, b)]
            product = oracle.mul(g, h)
            if any(total):
                assert lead(product) == (level, total)
            elif product != oracle.identity:
                assert lead(product)[0] > level
            pairs += 1
    assert pairs >= 20 * (m * k - 2)


def test_lead_map_takes_any_level_function():
    # the level d of a coefficient's degree gives the congruence
    # filtration: K_i holds exactly the elements of level at least i; and
    # the lower elementary, outside the Sylow, has level below 1
    sylow = IwahoriSylow(2, F3, 3, DEFAULT_CAP)
    lead = sylow.group.lead_map(lambda i, j, d: d)
    for i in (2, 3):
        K = congruence_subgroup(sylow, i)
        inside = {key for key in K.elements if key != sylow.group.identity}
        listed = {key for key in sylow.table.elements[1:] if lead(key)[0] >= i}
        assert inside == listed
    assert sylow.lead(sylow.group.elementary(1, 0, 1))[0] == -1


@pytest.mark.parametrize("m,q,k", [(2, 3, 3), (2, 5, 3)])
def test_a_lead_taking_the_largest_level_is_refused(m, q, k):
    # the lead map of the level function negated reads the largest level
    # of g - 1 in place of the least; the layered engine looped for ever on
    # it, and now refuses it when a sift does not rise
    fq = FqConfig.from_q(q)
    sylow = IwahoriSylow(m, fq, k, DEFAULT_CAP)
    lead = sylow.group.lead_map(lambda i, j, d: -iwahori_level(m, i, j, d))
    with pytest.raises(NotAFiltration, match="in one sift"):
        layered_order(sylow.generators, sylow.group.oracle(), lead, fq.p)


def _h1(m, fq, k):
    return verify_theorem1_affine(IwahoriSylow(m, fq, k, DEFAULT_CAP))["h1_blackbox"]


def test_frattini_dimensions():
    assert _h1(2, F3, 2) == 2
    assert _h1(2, F3, 3) == 2
    assert _h1(2, F9, 2) == 4
    assert _h1(2, F3, 1) == 1
    assert _h1(3, F3, 2) == 3


def test_frattini_dimension_of_enumeration_matches_generated_sylow():
    sylow = brute_force_sylow(2, F3, 2)
    oracle = AffineMatrixGroup(2, F3, 2).oracle()
    d = frattini_dimension_of(sylow, oracle, 3)
    assert d == _h1(2, F3, 2)


def test_affine_hypothesis_bound():
    # A_1^(1) is a double bond; longer cycles have single bonds only
    for m, bound in [(2, 2), (3, 1), (4, 1)]:
        assert check_off_diagonal_hypothesis(affine_cartan_matrix(m), 3) == bound


@pytest.mark.parametrize("m,h1", [(2, 2), (3, 3)])
def test_verify_theorem1_affine_matches_reference(m, h1):
    report = verify_theorem1_affine(IwahoriSylow(m, F3, 2, DEFAULT_CAP))
    assert report == {
        "model": "affine_matrix",
        "gcm": None,
        "m": m,
        "k": 2,
        "q": 3,
        "H": None,
        "h1_blackbox": h1,
        "h1_layered": h1,
        "h1_linear": None,
        "h1_predicted": h1,
        "frattini_eq_derived": True,
        "thm_ii_lhs_order": None,
        "thm_ii_rhs_order": None,
        "generators_generate": True,
    }


def test_verify_theorem1_affine_hypothesis():
    with pytest.raises(HypothesisViolated, match="off-diagonal size 2"):
        verify_theorem1_affine(IwahoriSylow(2, F2, 2, DEFAULT_CAP))
    report = verify_theorem1_affine(IwahoriSylow(3, F2, 2, DEFAULT_CAP))
    assert report["h1_blackbox"] == report["h1_predicted"] == 3


def test_commutator_identity_basic():
    assert commutator_identity_check(F2, 1, 1, 1, 1, 9)
    with pytest.raises(TruncationTooShallow):
        commutator_identity_check(F2, 1, 1, 1, 1, 3)


def test_commutator_identity_exhaustive_f3():
    for r_val in range(3):
        for s_val in range(3):
            for m_exp in (1, 2):
                for n_exp in (1, 2):
                    assert commutator_identity_check(
                        F3, r_val, s_val, m_exp, n_exp, 9
                    )


def test_commutator_identity_f4():
    for r_val in range(4):
        for s_val in range(4):
            assert commutator_identity_check(F4, r_val, s_val, 2, 3, 10)


TEST_CAMPAIGNS = os.path.join(os.path.dirname(__file__), "campaigns")
# the commutator instance of bench/tests/test_bench_tracer.py
TRACER_COMMUTATOR = {"model": "affine", "q": 2, "K": 4, "max_exp": 1}


def commutator_instances():
    """(q, K, ms, ns) of every commutator instance that the tests or the
    campaigns list: its cases are every r and s of F_q with m in ms and n
    in ns."""
    found = {(2, 9, (1,), (1,)), (3, 9, (1, 2), (1, 2)), (4, 10, (2,), (3,))}
    campaigns = [DEFAULT_CAMPAIGN, {"instances": [TRACER_COMMUTATOR]}]
    paths = glob.glob(f"{CAMPAIGNS}/*.json") + glob.glob(f"{TEST_CAMPAIGNS}/*.json")
    for path in sorted(paths):
        with open(path) as fh:
            campaigns.append(json.load(fh))
    for campaign in campaigns:
        for inst in campaign["instances"]:
            if inst["model"] == "affine" and "K" in inst:
                exps = tuple(range(1, inst["max_exp"] + 1))
                found.add((inst["q"], inst["K"], exps, exps))
    return sorted(found)


def _commutator_cases(q, ms, ns):
    """r, s, m and n of every case, n running fastest, as flat arrays."""
    grid = np.meshgrid(range(q), range(q), ms, ns, indexing="ij")
    return [axis.ravel() for axis in grid]


@pytest.mark.parametrize("q,K,ms,ns", commutator_instances())
def test_broadcast_commutator_check_equals_the_scalar_composition(q, K, ms, ns):
    fq = FqConfig.from_q(q)
    cases = _commutator_cases(q, ms, ns)
    got = commutator_identity_check(fq, *cases, K)
    assert got.dtype == bool and got.shape == cases[0].shape
    want = [
        scalar_commutator_identity_check(fq, *case, K)
        for case in zip(*(axis.tolist() for axis in cases))
    ]
    assert got.tolist() == want


def test_commutator_check_broadcasts_its_case_arguments():
    # a scalar case is a bool; arrays broadcast against scalars and
    # against each other, one bool per case in their shape
    assert commutator_identity_check(F3, 1, 2, 1, 2, 9) is True
    got = commutator_identity_check(F3, np.arange(3), 2, [[1], [2]], 1, 9)
    assert got.shape == (2, 3) and got.all()


@pytest.mark.parametrize("block", [SCAN_BLOCK, 16])
@pytest.mark.parametrize("case", [0, 17, 35])
def test_a_flipped_code_of_the_commutator_closed_form_fails_its_case_alone(
    monkeypatch, block, case
):
    # at blocks of 16 the 36 cases run as 16 + 16 + 4 rows, so the cases
    # fall in the first, second and last block; the flipped code is the
    # case's t^(m+n) entry at (1, 1), or its constant term where that entry
    # is truncated away
    closed_form = affine._commutator_closed_form

    def flipped(fq, rows, r, s, m, n, K):
        rhs = closed_form(fq, rows, r, s, m, n, K)
        d = m[case] + n[case]
        at = 3 * K + (d if d < K else 0)
        rhs[case, at] = fq.add(rhs[case, at], 1)
        return rhs

    monkeypatch.setattr(affine, "_commutator_closed_form", flipped)
    monkeypatch.setattr(affine, "SCAN_BLOCK", block)
    ok = commutator_identity_check(F3, *_commutator_cases(3, (1, 2), (1, 2)), 9)
    assert np.flatnonzero(~ok).tolist() == [case]


def test_commutator_check_refuses_its_first_shallow_case_before_any_product(monkeypatch):
    def no_group(*args):
        raise AssertionError("a group built before the refusal")

    monkeypatch.setattr(affine, "AffineMatrixGroup", no_group)
    # bounds 3, 9, 6 and then 3, 6, 9: the first case that K cannot hold
    # names its own bound, not the largest
    with pytest.raises(TruncationTooShallow, match=r"^need K > 9 to"):
        commutator_identity_check(F2, 1, 1, [1, 3, 2], 1, 7)
    with pytest.raises(TruncationTooShallow, match=r"^need K > 6 to"):
        commutator_identity_check(F2, 1, 1, 1, [1, 2, 3], 5)


def test_congruence_chain(monkeypatch):
    # with the last stages streamed, K_2 and K_3 are filtered from the rows
    # of K_2 kept from the listing, and only K_1 decodes the table's rows
    monkeypatch.setattr(pgroup, "SCAN_BLOCK", 64)
    sylow = IwahoriSylow(2, F3, 3, DEFAULT_CAP)
    table = sylow.table
    chain = [congruence_subgroup(sylow, i) for i in (2, 3)]
    assert "rows" not in vars(table)
    chain.insert(0, congruence_subgroup(sylow, 1))
    assert [K.order for K in chain] == [3 ** 6, 3 ** 3, 1]
    assert len(table.rows) == table.order == 3 ** 7
    oracle = table.oracle
    for K in chain:
        for key in K.elements:
            for g in table.generators:
                conj = oracle.mul(oracle.mul(g, key), oracle.inv(g))
                assert conj in K
    # successive quotients are elementary abelian
    for K, K_next in zip(chain, chain[1:]):
        sample = K.elements[:30]
        for a in sample:
            for b in sample:
                assert commutator(oracle, a, b) in K_next
            powed = a
            for _ in range(2):
                powed = oracle.mul(powed, a)
            assert powed in K_next


def test_scans_across_block_boundaries():
    # the (2,3,4) listing streams its last two stages, from 3^8 and 3^9
    # elements, over several blocks: generation and K_2 to K_4 are read
    # from the blocks as they are formed, and K_1 from the decoded rows
    sylow = IwahoriSylow(2, F3, 4, DEFAULT_CAP)
    assert sylow.order == 3 ** 10 and sylow.order // 3 > SCAN_BLOCK
    assert verify_generation(sylow)
    chain = [congruence_subgroup(sylow, i) for i in (2, 3, 4)]
    assert "rows" not in vars(sylow.table)
    chain.insert(0, congruence_subgroup(sylow, 1))
    assert [K.order for K in chain] == [3 ** 9, 3 ** 6, 3 ** 3, 1]
    # a listing whose last stage, past 3^9 elements, lies outside the Sylow
    assert not verify_generation(conjugated_sylow(F3, 4))
    group, table = enumerate_special_linear(3, F3)
    assert table.order == 5616 > SCAN_BLOCK
    assert borel_subgroup(group, table).order == 108
    assert monomial_subgroup(group, table).order == 24


def test_a_scan_reads_a_block_at_a_time_up_to_the_first_that_fails(monkeypatch):
    # 81 rows in blocks of at most 16, the identity's first, each read as
    # the listing forms it; the listing of a conjugate of the Sylow forms
    # the 27 elements of K_1 first, all inside, and the membership test
    # stops at the first block of its last stage, 16 rows outside
    monkeypatch.setattr(pgroup, "SCAN_BLOCK", 16)
    sizes = []

    def counted(group, A):
        sizes.append(len(A))
        return iwahori_sylow_membership(group, A)

    monkeypatch.setattr(affine, "iwahori_sylow_membership", counted)
    sylow = IwahoriSylow(2, F3, 2, DEFAULT_CAP)
    assert verify_generation(sylow)
    assert sizes[0] == 1 and max(sizes) == 16 and sum(sizes) == 81
    sizes.clear()
    forged = conjugated_sylow(F3, 2)
    assert not verify_generation(forged)
    assert forged.table.order == 81
    assert sum(sizes) == 27 + 16 and sizes[-1] == 16


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_non_member_formed_in_the_streamed_stage_fails_generation(monkeypatch, k):
    # the Sylow's conjugate by 1 + E_21 has the Sylow's order and lists K_1,
    # inside the Sylow, before its last stage, which streams and lies
    # outside: generation is false, as the whole-table scan finds it
    monkeypatch.setattr(pgroup, "SCAN_BLOCK", 16)
    streamed = recorded_streams(monkeypatch)
    forged = conjugated_sylow(F3, k)
    assert not verify_generation(forged)
    assert streamed == streamed_stages(forged.order, 3, 16)
    assert streamed[-1] == forged.order // 3
    assert forged.table.order == forged.order
    stack = forged.table.rows.reshape(-1, 2, 2, k)
    assert (~iwahori_sylow_membership(forged.group, stack)).sum() == 2 * forged.order // 3


@pytest.mark.parametrize("m,q,k", matrix_sylow_instances())
def test_the_streamed_listing_agrees_with_the_whole_table_scan(m, q, k):
    assert_streamed_listing_agrees(m, FqConfig.from_q(q), k)


def test_generation_and_filtration_in_a_campaign_hold_no_sylow_rows(monkeypatch):
    # the two checks share one listing of each Sylow, which streams its
    # last stages, and neither reads the rows back: K_2 and up come from
    # the rows kept from the listing
    made = []

    class Recorded(IwahoriSylow):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(cli, "IwahoriSylow", Recorded)
    checks = ["generation", "filtration"]
    campaign = {
        "instances": [
            {"model": "affine", "m": m, "q": q, "k": k, "checks": checks}
            for m, q, k in [(2, 3, 4), (2, 5, 3)]
        ]
    }
    for inst in run_campaign(campaign)["instances"]:
        assert [r["status"] for r in inst["results"]] == ["pass", "pass"]
    assert len(made) == 2
    for sylow in made:
        assert sylow.order // sylow.fq.p > SCAN_BLOCK
        assert "rows" not in vars(sylow.table)


def test_a_subtable_equals_the_whole_table_filter(monkeypatch):
    # the predicate reads blocks of at most 1000 rows, 1000 not dividing the
    # order, and keeps the rows that the whole-table filter keeps; a subtable
    # of a subtable too, and membership answers by the same mask
    monkeypatch.setattr(pgroup, "SCAN_BLOCK", 1000)
    table = IwahoriSylow(2, F3, 4, DEFAULT_CAP).table
    sizes = []

    def tracked(predicate):
        def read(rows):
            sizes.append(len(rows))
            return predicate(rows)

        return read

    # no coefficient of t in any entry, and a digit sum divisible by 3
    no_t = tracked(lambda rows: (rows[:, [1, 5, 9, 13]] == 0).all(axis=1))
    digit_sum = tracked(lambda rows: rows.sum(axis=1, dtype=np.int64) % 3 == 0)
    for parent, predicate in [(table, no_t), (table, digit_sum)]:
        sizes.clear()
        sub = parent.subtable(predicate)
        assert max(sizes) <= 1000 and sum(sizes) == parent.order
        whole = predicate(parent.rows)
        assert 0 < whole.sum() < parent.order
        assert np.array_equal(sub.rows, parent.rows[whole])
        assert np.array_equal(sub.members.marked(parent.rows), whole)
    inner = table.subtable(no_t).subtable(digit_sum)
    assert np.array_equal(inner.rows, table.rows[no_t(table.rows) & digit_sum(table.rows)])


def _peak(make):
    tracemalloc.start()
    try:
        made = make()
        return made, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_generation_listing_holds_under_three_quarters_of_the_rows():
    # the (3,3,2) Sylow, 3^11 rows of 18 bytes: the membership test reads
    # each block as the listing forms it, and the last two stages stream,
    # so only a ninth of the rows is ever held
    sylow = IwahoriSylow(3, F3, 2, DEFAULT_CAP)
    sylow.group.oracle()
    generates, peak = _peak(lambda: verify_generation(sylow))
    assert generates and "rows" not in vars(sylow.table)
    assert peak < 0.75 * sylow.order * sylow.group.width


def test_a_congruence_subgroup_allocates_under_a_quarter_of_the_table():
    # K_4 of the (2,3,4) Sylow, one row of 3^10: the predicate reads
    # SCAN_BLOCK matrices at a time, where the whole stack at once allocated
    # a temporary as large as the rows
    sylow = IwahoriSylow(2, F3, 4, DEFAULT_CAP)
    rows = sylow.table.rows
    K, peak = _peak(lambda: congruence_subgroup(sylow, 4))
    assert K.order == 1
    assert peak < rows.nbytes / 4


def test_generation_outside_the_hypothesis_at_m2_in_characteristic_2():
    # observations outside the hypothesis p > 2, not claims of the paper:
    # at (2,4,3) the standard generators give 2^12 of the Sylow's 2^14
    # elements, the enumerated and the layered order agreeing, and at
    # (2,8,3) they give the whole Sylow of 2^21
    sylow = IwahoriSylow(2, F4, 3, DEFAULT_CAP)
    assert not verify_generation(sylow)
    assert sylow.table.order == sylow.count.order == 2 ** 12
    assert sylow.order == 2 ** 14
    assert verify_generation(IwahoriSylow(2, FqConfig(2, 3), 3, DEFAULT_CAP))


# (q, k, log_2 of the layered order of the standard generators) at m = 2;
# the Sylow has 2^(r (3k - 2)) elements.  At q = 2 and at q = 4 past k = 2
# the generators fall short, and at q = 8 and 16 they generate at each k
M2_CHARACTERISTIC_2 = (
    [(2, 2, 3), (2, 3, 4), (2, 4, 4), (2, 5, 5)]
    + [(4, 2, 8), (4, 3, 12), (4, 4, 18), (4, 5, 24)]
    + [(q, k, r * (3 * k - 2)) for q, r in ((8, 3), (16, 4)) for k in range(2, 6)]
)


@pytest.mark.parametrize("q,k,generated", M2_CHARACTERISTIC_2)
def test_m2_generation_in_characteristic_2_by_layered_orders(monkeypatch, q, k, generated):
    # observations outside the hypothesis p > 2, read from the layered
    # order alone: no element is listed
    monkeypatch.setattr(pgroup, "_Closure", None)
    sylow = IwahoriSylow(2, FqConfig.from_q(q), k, DEFAULT_CAP)
    assert sylow.count.order == 2 ** generated
    assert sylow.order == 2 ** (sylow.fq.r * (3 * k - 2))


def test_congruence_subgroup_validation():
    sylow = IwahoriSylow(2, F3, 2, DEFAULT_CAP)
    with pytest.raises(ValueError):
        congruence_subgroup(sylow, 0)
    with pytest.raises(ValueError):
        congruence_subgroup(sylow, 3)


def test_filtration_lemma_on_congruence_chain():
    for k in (2, 3):
        sylow = IwahoriSylow(2, F3, k, DEFAULT_CAP)
        table = sylow.table
        V = derived_subgroup(table, 3)
        chain = [congruence_subgroup(sylow, i) for i in range(2, k + 1)]
        if not chain:
            continue
        report = check_filtration_lemma(table, chain, V)
        assert all(report["normal"])
        if report["hypothesis_holds"]:
            assert report["conclusion_holds"]


# (m, q, k) of every filtration instance of the tests and campaigns
FILTRATIONS = [(2, 3, 2), (2, 3, 3), (2, 3, 4), (2, 5, 3)]


@pytest.mark.parametrize("m,q,k", FILTRATIONS)
def test_filtration_lemma_agrees_with_the_scalar_scan(m, q, k):
    # V as the campaigns take it (Phi), as the tests take it (the derived
    # subgroup), the closure of one generator, which holds no congruence
    # subgroup, and the trivial group; and the chain from K_2, as both take
    # it, and on the smaller Sylows from K_1, which does not lie in Phi
    fq = FqConfig.from_q(q)
    sylow = IwahoriSylow(m, fq, k, DEFAULT_CAP)
    table, oracle = sylow.table, sylow.group.oracle()
    subgroups = [
        sylow.frattini[0],
        derived_subgroup(table, fq.p),
        closure(table.generators[:1], oracle),
        closure([], oracle),
    ]
    chain = [congruence_subgroup(sylow, i) for i in range(1, k + 1)]
    verdicts = set()
    for V in subgroups:
        for start in (0, 1) if sylow.order <= 3 ** 7 else (1,):
            report = assert_filtration_reports_agree(table, chain[start:], V)
            verdicts.add(report["hypothesis_holds"])
    assert verdicts == {True, False}


def test_filtration_lemma_reports_a_chain_member_that_is_not_normal():
    # {1 + f(t) E12}, 27 elements, enough for a bulk left product; the
    # corner generator conjugates it out of itself, so it is not normal
    sylow = IwahoriSylow(2, F3, 3, DEFAULT_CAP)
    table, group = sylow.table, sylow.group
    upper = closure([group.elementary(0, 1, 1, d) for d in range(3)], group.oracle())
    assert upper.order == 27
    chain = [upper, closure([], group.oracle())]
    report = assert_filtration_reports_agree(table, chain, sylow.frattini[0])
    assert report["normal"] == [False, True]


def _reduce(big, small, keys):
    """Images under the coefficient-truncation homomorphism onto the group
    over F_q[t]/(t^k') for k' <= k: a slice of the (n, m, m, k) rows."""
    keys = list(keys)
    stack = key_rows(keys, big.width).reshape(-1, big.m, big.m, big.k)
    return row_keys(np.ascontiguousarray(stack[..., : small.k]).reshape(len(keys), -1))


def test_reduction_is_homomorphism():
    sylow = IwahoriSylow(2, F3, 3, DEFAULT_CAP)
    big, table = sylow.group, sylow.table
    small = AffineMatrixGroup(2, F3, 2)
    big_mul, small_mul = table.oracle.mul, small.oracle().mul
    rng = random.Random(23)
    for _ in range(200):
        a = table.elements[rng.randrange(table.order)]
        b = table.elements[rng.randrange(table.order)]
        ra, rb, rab = _reduce(big, small, [a, b, big_mul(a, b)])
        assert rab == small_mul(ra, rb)
    # generators map onto generators
    gens_big = _reduce(big, small, sylow_generators(2, F3, 3))
    assert gens_big == sylow_generators(2, F3, 2)


def test_reduction_maps_sylow_onto_sylow():
    big = AffineMatrixGroup(2, F2, 3)
    small = AffineMatrixGroup(2, F2, 2)
    # at q = 2 the standard generators close up short of the Sylow, so the
    # Sylow subgroups are the membership enumerations: 128 onto 16 elements
    big_sylow = brute_force_sylow(2, F2, 3)
    small_sylow = brute_force_sylow(2, F2, 2)
    assert (len(big_sylow), len(small_sylow)) == (128, 16)
    assert set(_reduce(big, small, big_sylow)) == small_sylow
    # the closures of the standard generators (16 and 8 elements) also
    # reduce onto each other
    big_table = IwahoriSylow(2, F2, 3, DEFAULT_CAP).table
    small_table = IwahoriSylow(2, F2, 2, DEFAULT_CAP).table
    assert set(_reduce(big, small, big_table.elements)) == set(small_table.elements)
    # at q = 3 the generated tables are the Sylow subgroups: 2 187 onto 81
    big = AffineMatrixGroup(2, F3, 3)
    small = AffineMatrixGroup(2, F3, 2)
    big_table = IwahoriSylow(2, F3, 3, DEFAULT_CAP).table
    small_table = IwahoriSylow(2, F3, 2, DEFAULT_CAP).table
    assert (big_table.order, small_table.order) == (
        sylow_order(2, F3, 3),
        sylow_order(2, F3, 2),
    ) == (2187, 81)
    assert set(_reduce(big, small, big_table.elements)) == set(small_table.elements)


def test_bulk_multiplication_matches_scalar():
    group = AffineMatrixGroup(2, F9, 2)
    oracle = group.oracle()
    table = IwahoriSylow(2, F9, 2, DEFAULT_CAP).table
    rng = random.Random(31)
    keys = [table.elements[rng.randrange(table.order)] for _ in range(50)]
    g = table.elements[rng.randrange(table.order)]
    rows = oracle.mul_many(key_rows(keys, group.width), g)
    assert rows.shape == (len(keys), group.width) and rows.dtype == np.uint8
    assert row_keys(rows) == [oracle.mul(k, g) for k in keys]
