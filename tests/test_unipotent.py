"""Tests for the truncated exponential group over F_q."""

import dataclasses
import glob
import inspect
import json
import os
import random

import numpy as np
import pytest

import kmsylow.pgroup as pgroup
import kmsylow.unipotent as unipotent
from kmsylow.bch import bch_lyndon_terms
from kmsylow.cli import DEFAULT_CAMPAIGN, run_campaign
from kmsylow.errors import (
    CharacteristicTooSmall,
    HeightExceedsCutoff,
    HypothesisViolated,
    NotPositiveRealRoot,
)
from kmsylow.fields import FqConfig
from kmsylow.gcm import validate_gcm
from kmsylow.law import PolynomialMap, key_rows, row_keys
from kmsylow.lie import bracket, standard_factorization
from kmsylow.pgroup import (
    _power,
    closure,
    commutator,
    generator_commutators,
    layered_order,
    normal_closure,
)
from kmsylow.roots import RootVector
from kmsylow.unipotent import (
    UnipotentModel,
    frattini_dimension_linear,
    lazard_orders,
    root_group_element,
    standard_generators,
    verify_theorem1,
)

from breadth_first import assert_closures_agree
from coset_probe import assert_same_indices
from frattini_stream import assert_streamed_frattini_agrees
from lie_lookup import generator_index
from membership_paths import assert_membership_paths_agree
from poly_ops_law import poly_ops_law

A2 = validate_gcm([[2, -1], [-1, 2]])
B2S = validate_gcm([[2, -1], [-2, 2]])
G2S = validate_gcm([[2, -1], [-3, 2]])
AFF = validate_gcm([[2, -2], [-2, 2]])
C2S = validate_gcm([[2, -2], [-1, 2]])
AFF3 = validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def rv(**coords):
    return RootVector.from_coords({int(k): v for k, v in coords.items()})


def random_element(model, rng):
    return bytes(rng.randrange(model.fq.q) for _ in range(model.dim))


def test_characteristic_guard():
    with pytest.raises(CharacteristicTooSmall):
        UnipotentModel(A2, FqConfig(3), 3)
    with pytest.raises(CharacteristicTooSmall):
        UnipotentModel(A2, FqConfig(2, 2), 3)
    UnipotentModel(A2, FqConfig(5), 3)


def test_identity_and_inverse():
    model = UnipotentModel(A2, FqConfig(5), 3)
    oracle = model.oracle()
    mul, inv, identity = oracle.mul, oracle.inv, oracle.identity
    rng = random.Random(1)
    for _ in range(50):
        x = random_element(model, rng)
        assert mul(x, identity) == x
        assert mul(identity, x) == x
        assert mul(x, inv(x)) == identity
        assert mul(inv(x), x) == identity


def test_associativity_random():
    for gcm, q, H in [(A2, 5, 3), (B2S, 5, 4), (G2S, 7, 4), (A2, 25, 3)]:
        model = UnipotentModel(gcm, FqConfig.from_q(q), H)
        mul = model.oracle().mul
        rng = random.Random(q * 100 + H)
        for _ in range(120):
            x, y, z = (random_element(model, rng) for _ in range(3))
            left = mul(mul(x, y), z)
            right = mul(x, mul(y, z))
            assert left == right


def test_exponent_p():
    for gcm, q, H in [(A2, 5, 3), (B2S, 5, 4), (A2, 25, 3)]:
        model = UnipotentModel(gcm, FqConfig.from_q(q), H)
        oracle = model.oracle()
        rng = random.Random(7)
        for _ in range(40):
            x = random_element(model, rng)
            assert _power(oracle, x, model.fq.p) == oracle.identity


def test_unitriangular_cross_check():
    # A_2 at height 3 is the strictly upper triangular 3x3 algebra; the
    # exponential sends (a, b, c) to I + aE12 + bE23 + (c + ab/2)E13
    p = 5
    model = UnipotentModel(A2, FqConfig(p), 3)
    i1 = generator_index(model.algebra, 1)
    i2 = generator_index(model.algebra, 2)
    i12 = model.algebra.by_degree[rv(**{"1": 1, "2": 1})][0]
    inv2 = pow(2, p - 2, p)

    def to_matrix(x):
        a, b, c = x[i1], x[i2], x[i12]
        return (a, b, (c + a * b * inv2) % p)

    def matrix_mul(m1, m2):
        # entries (x12, x23, x13) of unitriangular matrices
        return (
            (m1[0] + m2[0]) % p,
            (m1[1] + m2[1]) % p,
            (m1[2] + m2[2] + m1[0] * m2[1]) % p,
        )

    mul = model.oracle().mul
    rng = random.Random(13)
    for _ in range(200):
        x = random_element(model, rng)
        y = random_element(model, rng)
        z = mul(x, y)
        assert to_matrix(z) == matrix_mul(to_matrix(x), to_matrix(y))


def test_commutator_of_simple_generators_is_height_two():
    model = UnipotentModel(A2, FqConfig(5), 3)
    oracle = model.oracle()
    e1 = root_group_element(model, rv(**{"1": 1}), 1)
    e2 = root_group_element(model, rv(**{"2": 1}), 1)
    expected = root_group_element(model, rv(**{"1": 1, "2": 1}), 1)
    assert commutator(oracle, e1, e2) == expected


def test_root_group_additivity():
    for gcm, q, H in [(A2, 5, 3), (B2S, 5, 4), (A2, 25, 3)]:
        model = UnipotentModel(gcm, FqConfig.from_q(q), H)
        mul = model.oracle().mul
        fq = model.fq
        roots = [b.root for b in model.algebra.basis]
        from kmsylow.roots import REAL, root_status

        real_roots = [g for g in roots if root_status(gcm, g).tag == REAL]
        for gamma in real_roots:
            for a in range(min(q, 8)):
                for b in range(min(q, 8)):
                    lhs = mul(
                        root_group_element(model, gamma, a),
                        root_group_element(model, gamma, b),
                    )
                    assert lhs == root_group_element(model, gamma, fq.add(a, b))


def test_root_group_element_errors():
    model = UnipotentModel(A2, FqConfig(5), 3)
    with pytest.raises(NotPositiveRealRoot):
        root_group_element(model, rv(**{"1": -1}), 1)
    with pytest.raises(NotPositiveRealRoot):
        root_group_element(model, rv(**{"1": 1, "2": 2}), 1)  # not a root
    aff_model = UnipotentModel(AFF, FqConfig(5), 4)
    with pytest.raises(NotPositiveRealRoot):
        root_group_element(aff_model, rv(**{"1": 1, "2": 1}), 1)  # imaginary
    with pytest.raises(HeightExceedsCutoff):
        root_group_element(aff_model, rv(**{"1": 3, "2": 2}), 1)


def test_power_and_order_of_element():
    model = UnipotentModel(A2, FqConfig(5), 3)
    oracle = model.oracle()
    x = root_group_element(model, rv(**{"1": 1}), 1)
    assert _power(oracle, x, 0) == oracle.identity
    assert _power(oracle, x, 3) == root_group_element(model, rv(**{"1": 1}), 3)
    # x has order p = 5, so x^-1 = x^4
    assert _power(oracle, x, 4) == oracle.inv(x)


def test_bulk_multiplication_matches_scalar():
    for gcm, q, H in [(A2, 5, 3), (B2S, 5, 4), (A2, 25, 3), (C2S, 25, 3)]:
        model = UnipotentModel(gcm, FqConfig.from_q(q), H)
        oracle = model.oracle()
        rng = random.Random(q + H)
        keys = [random_element(model, rng) for _ in range(40)]
        g = random_element(model, rng)
        rows = oracle.mul_many(key_rows(keys, len(g)), g)
        assert rows.shape == (len(keys), len(g)) and rows.dtype == np.uint8
        assert row_keys(rows) == [oracle.mul(k, g) for k in keys]


def series_product(model, x, y):
    """log(exp x exp y) term by term: each Lyndon word of the BCH series,
    bracketed by its standard factorization with lie.bracket over the prime
    field of the model's algebra; x and y are sparse dicts index -> code."""
    algebra = model.algebra
    fld = algebra.field
    values = {(0,): x, (1,): y}

    def value(word):
        if word not in values:
            u, v = standard_factorization(word)
            values[word] = bracket(algebra, value(u), value(v))
        return values[word]

    out = {}
    for word, coeff in bch_lyndon_terms(model.cutoff):
        c = fld.from_fraction(coeff)
        for k, a in value(word).items():
            out[k] = fld.add(out.get(k, fld.zero), fld.mul(c, a))
    return bytes(out.get(k, 0) for k in range(model.dim))


@pytest.mark.parametrize(
    "gcm, q, H",
    [(A2, 5, 3), (B2S, 5, 4), (G2S, 7, 4), (AFF, 7, 6), (AFF3, 7, 5)],
)
def test_law_and_bracket_match_the_series_term_by_term(gcm, q, H):
    model = UnipotentModel(gcm, FqConfig(q), H)
    mul = model.oracle().mul
    rng = random.Random(q * H)
    for n in range(40):
        x = random_element(model, rng)
        # right factors with zero coordinates, the identity included
        y = bytes(c if rng.randrange(2) and n else 0 for c in random_element(model, rng))
        sx, sy = ({i: c for i, c in enumerate(v) if c} for v in (x, y))
        assert mul(x, y) == series_product(model, sx, sy)
        want = bytes(bracket(model.algebra, sx, sy).get(k, 0) for k in range(model.dim))
        assert bytes(model.bracket_fp(list(x), list(y))) == want


def height_subgroups(model, oracle):
    """(generators, enumeration) of each U_i, the vectors supported in
    heights >= i, for i = 1..H+1."""
    out = []
    for i in range(1, model.cutoff + 2):
        gens = []
        for idx in range(model.dim):
            if model.heights[idx] >= i:
                for code in model.fq.basis:
                    vec = [0] * model.dim
                    vec[idx] = code
                    gens.append(bytes(vec))
        out.append((gens, closure(gens, oracle, p=model.fq.p)))
    return out


def assert_layered_orders(model, oracle, subgroups):
    # the layered order of U_i is q^(sum of the dimensions of heights >= i)
    dims = model.algebra.dimensions_per_height()
    for i, (gens, _) in enumerate(subgroups, start=1):
        order = layered_order(gens, oracle, model.lead, model.fq.p)
        assert order == model.fq.q ** sum(dims[i - 1 :])


def test_height_filtration_properties():
    model = UnipotentModel(B2S, FqConfig(5), 4)
    oracle = model.oracle()
    subgroups = height_subgroups(model, oracle)
    assert_layered_orders(model, oracle, subgroups)
    chain = [U for _, U in subgroups]
    assert chain[0].order == 5 ** model.dim
    assert chain[-1].order == 1
    gens = standard_generators(model)
    dims = model.algebra.dimensions_per_height()
    for i, U in enumerate(chain, start=1):
        assert U.order == 5 ** sum(dims[i - 1 :])
        for u in U.elements[:50]:
            for g in gens:
                conj = oracle.mul(oracle.mul(g, u), oracle.inv(g))
                assert conj in U
    # commutators of U_i with U_j land in U_{i+j}
    rng = random.Random(3)
    for i in range(1, model.cutoff + 1):
        for j in range(1, model.cutoff + 2 - i):
            Ui, Uj, Uij = chain[i - 1], chain[j - 1], chain[i + j - 1]
            for _ in range(20):
                a = Ui.elements[rng.randrange(Ui.order)]
                b = Uj.elements[rng.randrange(Uj.order)]
                assert commutator(oracle, a, b) in Uij


def test_first_quotient_is_elementary_abelian():
    model = UnipotentModel(A2, FqConfig(5), 3)
    oracle = model.oracle()
    subgroups = height_subgroups(model, oracle)
    assert_layered_orders(model, oracle, subgroups)
    U1, U2 = subgroups[0][1], subgroups[1][1]
    assert U1.order // U2.order == 5 ** A2.size
    for a in U1.elements[:40]:
        for b in U1.elements[:40]:
            assert commutator(oracle, a, b) in U2


def test_frattini_dimension_linear_values():
    assert frattini_dimension_linear(UnipotentModel(A2, FqConfig(5), 3)) == 2
    assert frattini_dimension_linear(UnipotentModel(G2S, FqConfig(5), 4)) == 2
    assert frattini_dimension_linear(UnipotentModel(A2, FqConfig(5, 2), 3)) == 4
    assert frattini_dimension_linear(UnipotentModel(AFF, FqConfig(5), 4)) == 2


def test_verify_theorem1_a2():
    report = verify_theorem1(A2, FqConfig(5), 3)
    assert report["h1_blackbox"] == 2
    assert report["h1_linear"] == 2
    assert report["h1_predicted"] == 2
    assert report["frattini_eq_derived"] is True
    assert report["generators_generate"] is True
    assert report["thm_ii_lhs_order"] == report["thm_ii_rhs_order"] == 5
    assert set(report) == {
        "gcm",
        "q",
        "H",
        "h1_blackbox",
        "h1_linear",
        "h1_predicted",
        "frattini_eq_derived",
        "thm_ii_lhs_order",
        "thm_ii_rhs_order",
        "generators_generate",
        "h1_layered",
        "thm_ii_lhs_order_linear",
        "thm_ii_rhs_order_linear",
        "generators_generate_linear",
        "group_engine",
        "caveat",
    }
    assert report["h1_layered"] == 2
    assert report["thm_ii_lhs_order_linear"] == report["thm_ii_rhs_order_linear"] == 5
    assert report["generators_generate_linear"] is True
    assert report["group_engine"] == "enumeration"


def test_verify_theorem1_b2_shape():
    report = verify_theorem1(B2S, FqConfig(5), 4)
    assert report["h1_blackbox"] == 2
    assert report["h1_linear"] == 2
    assert report["frattini_eq_derived"] is True
    assert report["generators_generate"] is True
    assert report["thm_ii_lhs_order"] == report["thm_ii_rhs_order"]


def test_verify_theorem1_extension_field():
    report = verify_theorem1(A2, FqConfig(5, 2), 3)
    assert report["h1_blackbox"] == 4
    assert report["h1_linear"] == 4
    assert report["h1_predicted"] == 4
    assert report["generators_generate"] is True


def test_verify_theorem1_big_path_matches_small_path():
    # a cap below the group order forces the coset-index route
    small = verify_theorem1(A2, FqConfig(5), 3)
    big = verify_theorem1(A2, FqConfig(5), 3, cap=100)
    for key in (
        "h1_blackbox",
        "h1_linear",
        "h1_predicted",
        "frattini_eq_derived",
        "thm_ii_lhs_order",
        "thm_ii_rhs_order",
        "generators_generate",
    ):
        assert small[key] == big[key]


def test_verify_theorem1_error_precedence():
    # p too small for the series but the off-diagonal hypothesis holds
    with pytest.raises(CharacteristicTooSmall):
        verify_theorem1(A2, FqConfig(2, 2), 3)
    # off-diagonal hypothesis fails; reported before any series concern
    with pytest.raises(HypothesisViolated):
        verify_theorem1(AFF, FqConfig(2), 4)


def test_frattini_ignores_pth_powers():
    # closure of commutators alone equals closure with p-th powers added
    model = UnipotentModel(A2, FqConfig(5), 3)
    oracle = model.oracle()
    gens = standard_generators(model)
    comms = [
        commutator(oracle, gens[i], gens[j])
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    ]
    powers = [_power(oracle, g, 5) for g in gens]
    without = normal_closure(comms, gens, oracle)
    with_powers = normal_closure(comms + powers, gens, oracle)
    assert frozenset(without.elements) == frozenset(with_powers.elements)


# differential tests: enumeration, the layered engine and the Lazard
# correspondence on every theorem-1 instance of the tests and campaigns

CAMPAIGNS = os.path.join(os.path.dirname(__file__), "..", "bench", "campaigns")
BEYOND_CAP = (AFF3, 7, 5)


def _instance_key(gcm, q, H):
    return (tuple(gcm.rows), q, H)


def theorem1_instances():
    found = {}
    for gcm, q, H in [
        (A2, 5, 3), (A2, 25, 3), (A2, 4, 1), (B2S, 5, 4), (G2S, 5, 4),
        (G2S, 7, 4), (AFF3, 5, 4),
    ]:
        found[_instance_key(gcm, q, H)] = (gcm, q, H)
    campaigns = [DEFAULT_CAMPAIGN]
    for path in sorted(glob.glob(f"{CAMPAIGNS}/*.json")):
        with open(path) as fh:
            campaigns.append(json.load(fh))
    for campaign in campaigns:
        for inst in campaign["instances"]:
            if inst["model"] == "bch" and "theorem1" in inst["checks"]:
                gcm, q, H = validate_gcm(inst["gcm"]), inst["q"], inst["H"]
                found[_instance_key(gcm, q, H)] = (gcm, q, H)
    return list(found.values())


INSTANCES = theorem1_instances()
UNDER_CAP = [
    inst
    for inst in INSTANCES
    if FqConfig.from_q(inst[1]).p > inst[2]
    and _instance_key(*inst) != _instance_key(*BEYOND_CAP)
]


def _ident(inst):
    gcm, q, H = inst
    return f"{gcm.rows}-q{q}-H{H}".replace(" ", "")


def test_instances_cover_the_campaigns():
    # q = 4 and q = 25 are covered; the campaigns' q = 4 instance has p <= H
    assert {q for _, q, _ in UNDER_CAP} >= {4, 5, 7, 25}
    # bch_stretch instance 5, whose group has 5^8 = 390 625 elements
    assert _instance_key(C2S, 25, 3) in {_instance_key(*inst) for inst in UNDER_CAP}
    assert len(INSTANCES) - len(UNDER_CAP) == 2
    keys = {_instance_key(*inst) for inst in INSTANCES}
    assert _instance_key(*BEYOND_CAP) in keys


# every instance with a model, and a hyperbolic one whose law has 5 194 terms
COMPILED = [inst for inst in INSTANCES if FqConfig.from_q(inst[1]).p > inst[2]]
COMPILED.append((validate_gcm([[2, -3], [-3, 2]]), 13, 8))


@pytest.mark.parametrize("inst", COMPILED, ids=_ident)
def test_law_and_bracket_agree_with_the_copying_compile(inst):
    # the law term for term; the bracket, which bracket_fp takes with
    # lie.bracket, as the copying compile's bracket map evaluated on seeded
    # digit-vector pairs, some with zero coordinates
    gcm, q, H = inst
    fq = FqConfig.from_q(q)
    model = UnipotentModel(gcm, fq, H)
    law, bracket_terms = poly_ops_law(model)
    assert model._law.terms == law
    bracket_map = PolynomialMap(fq, bracket_terms)
    rng = random.Random(q * H)
    for n in range(30):
        x = random_element(model, rng)
        y = bytes(c if rng.randrange(2) or n < 10 else 0 for c in random_element(model, rng))
        want = model.fp_vector(bracket_map(x, y))
        assert model.bracket_fp(model.fp_vector(x), model.fp_vector(y)) == want


def test_every_way_refuses_a_characteristic_below_the_cutoff():
    for gcm, q, H in INSTANCES:
        if FqConfig.from_q(q).p <= H:
            # the layered and Lazard ways need the model, which refuses too
            with pytest.raises(CharacteristicTooSmall):
                UnipotentModel(gcm, FqConfig.from_q(q), H)
            with pytest.raises(CharacteristicTooSmall):
                verify_theorem1(gcm, FqConfig.from_q(q), H)


# uncapped theorem-1 results by instance, and the tables each run listed;
# the enumerations are the slowest part of this module, so the tests that
# compare with them share one run
_UNCAPPED = {}
_LISTED = {}


def _instance_json_key(inst):
    return (json.dumps(inst["gcm"]), inst["q"], inst["H"])


def uncapped_theorem1(inst):
    """The result of the cli theorem-1 check on a campaign instance (a dict
    with gcm, q and H), run without a cap once per test session."""
    key = _instance_json_key(inst)
    if key not in _UNCAPPED:
        listed = _LISTED[key] = []
        campaign = {"instances": [dict(inst, model="bch", checks=["theorem1"])]}
        with pytest.MonkeyPatch.context() as m:
            # theorem 1 calls closure; its Frattini count, normal_closure
            for module, name in ((unipotent, "closure"), (pgroup, "normal_closure")):
                m.setattr(module, name, _recording(module, name, listed))
            (result,) = run_campaign(campaign)["instances"][0]["results"]
        _UNCAPPED[key] = result
    return _UNCAPPED[key]


def _recording(module, name, listed):
    """A module's closure or normal_closure, appending (name, its keys, the
    order of the table it returns) to listed."""
    original = getattr(module, name)

    def wrapper(keys, *args, **kwargs):
        keys = tuple(keys)
        table = original(keys, *args, **kwargs)
        listed.append((name, keys, table.order))
        return table

    return wrapper


def _model_and_generators(gcm, fq, H):
    model = UnipotentModel(gcm, fq, H)
    return model, standard_generators(model), unipotent._non_simple_real_root_elements(model)


@pytest.mark.parametrize("inst", UNDER_CAP, ids=_ident)
def test_enumeration_layered_and_lazard_agree(inst):
    gcm, q, H = inst
    fq = FqConfig.from_q(q)
    p = fq.p
    model, gens, rhs = _model_and_generators(gcm, fq, H)
    full = q ** model.dim

    result = uncapped_theorem1({"gcm": [list(r) for r in gcm.rows], "q": q, "H": H})
    assert result["status"] == "pass"
    enumerated = result["payload"]
    assert enumerated["group_engine"] == "enumeration"
    # a cap of 1 leaves every number to the layered engine
    layered = verify_theorem1(gcm, fq, H, cap=1)
    assert layered["group_engine"] == "layered"
    assert layered["h1_blackbox"] is None

    def ways(report, h1):
        phi = report["thm_ii_lhs_order"]
        return (
            phi * p ** report[h1],
            phi,
            report["thm_ii_rhs_order"],
            report[h1],
            report["generators_generate"],
            report["frattini_eq_derived"],
        )

    want = ways(enumerated, "h1_blackbox")
    assert ways(layered, "h1_layered") == want
    assert enumerated["h1_layered"] == want[3]

    order, phi, rhs_order = lazard_orders(model, gens, rhs)
    assert (order, phi, rhs_order) == want[:3]
    assert (order == full) is want[4]
    assert p ** enumerated["h1_linear"] == order // phi
    for report in (enumerated, layered):
        assert report["thm_ii_lhs_order_linear"] == phi
        assert report["thm_ii_rhs_order_linear"] == rhs_order
        assert report["generators_generate_linear"] is want[4]
        assert report["h1_predicted"] == want[3]

    oracle = model.oracle()
    assert layered_order(gens, oracle, model.lead, p) == order


@pytest.mark.parametrize("inst", UNDER_CAP, ids=_ident)
def test_theorem1_lists_the_frattini_subgroup_and_the_right_side_only(inst):
    # the group is never listed: its Frattini cosets are counted instead,
    # and closure runs once, on the right side of the comparison
    gcm, q, H = inst
    fq = FqConfig.from_q(q)
    _, gens, rhs = _model_and_generators(gcm, fq, H)
    json_inst = {"gcm": [list(r) for r in gcm.rows], "q": q, "H": H}
    report = uncapped_theorem1(json_inst)["payload"]
    assert report["group_engine"] == "enumeration"
    listed = _LISTED[_instance_json_key(json_inst)]
    closures = [keys for name, keys, _ in listed if name == "closure"]
    assert closures == [tuple(rhs)]
    assert tuple(gens) not in closures
    largest = max(report["thm_ii_lhs_order"], report["thm_ii_rhs_order"])
    assert max(order for _, _, order in listed) <= largest


@pytest.mark.parametrize("inst", UNDER_CAP, ids=_ident)
def test_bitmap_and_key_set_closures_agree(inst):
    gcm, q, H = inst
    fq = FqConfig.from_q(q)
    model, gens, _ = _model_and_generators(gcm, fq, H)
    oracle = model.oracle()
    order = layered_order(gens, oracle, model.lead, fq.p)
    assert_membership_paths_agree(oracle, gens, fq.p, order)


@pytest.mark.parametrize("inst", UNDER_CAP, ids=_ident)
def test_dimino_and_breadth_first_closures_agree(inst):
    gcm, q, H = inst
    fq = FqConfig.from_q(q)
    model, gens, _ = _model_and_generators(gcm, fq, H)
    oracle = model.oracle()
    order = layered_order(gens, oracle, model.lead, fq.p)
    assert_closures_agree(gens, oracle, fq.p, order)


@pytest.mark.parametrize("inst", UNDER_CAP, ids=_ident)
def test_dimino_and_probe_coset_counts_agree(inst):
    # the Frattini and derived subgroups, which are normal, and three
    # subgroups that need not be: the closures of the first generator, of a
    # commutator and of the right side of theorem 1, each compared while its
    # index is small
    gcm, q, H = inst
    fq = FqConfig.from_q(q)
    p = fq.p
    model, gens, rhs = _model_and_generators(gcm, fq, H)
    oracle = model.oracle()
    order = layered_order(gens, oracle, model.lead, p)
    comms = generator_commutators(oracle, gens)
    powers = [_power(oracle, g, p) for g in gens]
    frattini = normal_closure(comms + powers, gens, oracle, p=p)
    derived = normal_closure(comms, gens, oracle, p=p)
    subgroups = [frattini, derived] + [
        closure(keys, oracle, p=p)
        for keys in (gens[:1], [commutator(oracle, gens[0], gens[1])], rhs)
    ]
    assert assert_same_indices(subgroups, gens, oracle, order) >= 1


@pytest.mark.parametrize("inst", UNDER_CAP, ids=_ident)
def test_streamed_frattini_count_agrees_with_phi_listed_in_full(inst):
    gcm, q, H = inst
    fq = FqConfig.from_q(q)
    model, gens, _ = _model_and_generators(gcm, fq, H)
    assert_streamed_frattini_agrees(gens, model.oracle(), fq.p, model.lead, q)


def _refuse_enumeration(monkeypatch):
    """Run every enumeration call with an oracle that fails on use: a call
    must refuse on its known order before it multiplies anything."""

    def untouchable(*args):
        raise AssertionError("enumeration multiplied")

    for module, name in (
        (unipotent, "closure"),
        (pgroup, "normal_closure"),
        (pgroup, "subgroup_index"),
    ):
        original = getattr(module, name)
        signature = inspect.signature(original)

        def refusing(*args, _original=original, _signature=signature, **kwargs):
            bound = _signature.bind(*args, **kwargs)
            bound.arguments["oracle"] = dataclasses.replace(
                bound.arguments["oracle"],
                mul=untouchable, inv=untouchable, mul_many=untouchable,
            )
            return _original(*bound.args, **bound.kwargs)

        monkeypatch.setattr(module, name, refusing)


def test_beyond_the_cap_is_layered_and_linear(monkeypatch):
    gcm, q, H = BEYOND_CAP
    _refuse_enumeration(monkeypatch)
    report = verify_theorem1(gcm, FqConfig(q), H)
    assert report["group_engine"] == "layered"
    assert report["h1_blackbox"] is None
    assert report["h1_layered"] == report["h1_linear"] == report["h1_predicted"] == 3
    assert report["thm_ii_lhs_order"] == report["thm_ii_lhs_order_linear"] == 7 ** 11
    assert report["thm_ii_rhs_order"] == report["thm_ii_rhs_order_linear"] == 7 ** 9
    assert report["generators_generate"] is report["generators_generate_linear"] is True
    assert report["frattini_eq_derived"] is True

    model, gens, rhs = _model_and_generators(gcm, FqConfig(q), H)
    assert model.dim == 14
    assert layered_order(gens, model.oracle(), model.lead, 7) == 7 ** 14
    assert lazard_orders(model, gens, rhs) == (7 ** 14, 7 ** 11, 7 ** 9)

    campaign = {"instances": [
        {"model": "bch", "gcm": [list(r) for r in gcm.rows], "q": q, "H": H,
         "checks": ["theorem1"]},
    ]}
    result = run_campaign(campaign)["instances"][0]["results"][0]
    assert result["status"] == "pass"


def test_preflight_boundary(monkeypatch):
    # G2S at q = 5, H = 4: |G| = 5^5, Frattini subgroup and right side 5^3,
    # Frattini index 5^2
    fq = FqConfig(5)
    full = verify_theorem1(G2S, fq, 4, cap=5 ** 5)
    assert full["group_engine"] == "enumeration"
    assert (full["thm_ii_lhs_order"], full["thm_ii_rhs_order"]) == (125, 125)
    # a cap of |Phi| still enumerates: the group itself is never listed,
    # only its Frattini cosets are counted
    cosets = verify_theorem1(G2S, fq, 4, cap=125)
    assert cosets["group_engine"] == "enumeration"
    with monkeypatch.context() as m:
        _refuse_enumeration(m)
        layered = verify_theorem1(G2S, fq, 4, cap=124)
    assert layered["group_engine"] == "layered"
    assert layered["h1_blackbox"] is None
    for report in (cosets, layered):
        for key in full:
            if key not in ("h1_blackbox", "group_engine"):
                assert report[key] == full[key], key
    assert full["h1_blackbox"] == cosets["h1_blackbox"] == layered["h1_layered"]


def test_small_cap_keeps_every_theorem1_number():
    bch = [
        dict(inst, checks=["theorem1"])
        for inst in DEFAULT_CAMPAIGN["instances"]
        if inst["model"] == "bch" and "theorem1" in inst["checks"]
    ]
    capped = run_campaign(dict(DEFAULT_CAMPAIGN, instances=bch), cap=1000)
    engines = set()
    for inst, b in zip(bch, capped["instances"]):
        ra, (rb,) = uncapped_theorem1(inst), b["results"]
        assert ra["status"] == rb["status"]
        if ra["status"] == "skipped":
            assert ra["reason"] == rb["reason"] == "CharacteristicTooSmall"
            continue
        pa, pb = ra["payload"], rb["payload"]
        assert pa["group_engine"] == "enumeration"
        engines.add(pb["group_engine"])
        assert pb["h1_blackbox"] in (None, pa["h1_blackbox"])
        for key in pa:
            if key not in ("h1_blackbox", "group_engine"):
                assert pa[key] == pb[key], key
    assert engines == {"enumeration", "layered"}
