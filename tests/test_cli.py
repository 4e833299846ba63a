"""End-to-end exercises of the command-line interface."""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from kmsylow import affine, cli, pgroup, unipotent
from kmsylow.affine import AffineMatrixGroup
from kmsylow.cli import DEFAULT_CAMPAIGN, main, run_campaign
from kmsylow.errors import NotAFiltration
from kmsylow.fields import FqConfig
from kmsylow.unipotent import UnipotentModel

import mutants

A2 = [[2, -1], [-1, 2]]
AFF = [[2, -2], [-2, 2]]
IND = [[2, -5], [-1, 2]]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main(args)


def test_classify_finite(tmp_path, capsys):
    path = write_json(tmp_path, "a2.json", A2)
    assert run(["classify", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "finite"


def test_classify_affine_json(tmp_path, capsys):
    path = write_json(tmp_path, "aff.json", AFF)
    assert run(["classify", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["type"] == "affine"
    assert payload["indecomposable"] is True


def test_classify_indefinite_with_labels(tmp_path, capsys):
    path = write_json(tmp_path, "ind.json", {"matrix": IND, "labels": ["s", "t"]})
    assert run(["classify", path]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "indefinite"
    assert "'s'" in out and "'t'" in out


def test_classify_rejects_invalid_matrix(tmp_path, capsys):
    path = write_json(tmp_path, "bad.json", [[2, -1], [0, 2]])
    assert run(["classify", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_classify_rejects_unreadable_file(capsys):
    assert run(["classify", "/nonexistent/x.json"]) == 2
    capsys.readouterr()


def test_roots_a2(tmp_path, capsys):
    path = write_json(tmp_path, "a2.json", A2)
    assert run(["roots", path, "--height", "3"]) == 0
    out = capsys.readouterr().out
    assert "3 positive roots" in out


def test_roots_affine_json(tmp_path, capsys):
    path = write_json(tmp_path, "aff.json", AFF)
    assert run(["roots", path, "--height", "4", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 6
    tags = [row["status"] for row in rows]
    assert tags.count("imaginary") == 2
    assert tags.count("real") == 4
    # rows arrive sorted by height then coordinates
    assert [row["height"] for row in rows] == sorted(row["height"] for row in rows)


def test_roots_rank_one(tmp_path, capsys):
    path = write_json(tmp_path, "a1.json", [[2]])
    assert run(["roots", path, "--height", "5", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["status"] == "real"


def test_roots_rejects_bad_height(tmp_path, capsys):
    path = write_json(tmp_path, "a2.json", A2)
    assert run(["roots", path, "--height", "0"]) == 2
    capsys.readouterr()


def test_verify_custom_campaign_passes(tmp_path, capsys):
    campaign = {
        "name": "mini",
        "seed": 11,
        "instances": [
            {"model": "bch", "gcm": A2, "q": 5, "H": 3,
             "checks": ["roots", "theorem1"]},
            {"model": "affine", "m": 2, "q": 3, "k": 2,
             "checks": ["cor_linear"]},
        ],
    }
    path = write_json(tmp_path, "mini.json", campaign)
    out_path = tmp_path / "report.json"
    assert run(["verify", path, "--out", str(out_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("[PASS]") for line in lines)
    assert len(lines) == 3
    report = json.loads(out_path.read_text())
    assert report["campaign"] == "mini"
    assert len(report["instances"]) == 2
    statuses = [
        res["status"]
        for inst in report["instances"]
        for res in inst["results"]
    ]
    assert statuses == ["pass", "pass", "pass"]


def test_verify_skips_are_named_and_do_not_fail(tmp_path, capsys):
    campaign = {
        "name": "skips",
        "instances": [
            {"model": "bch", "gcm": A2, "q": 4, "H": 3, "checks": ["theorem1"]},
            {"model": "affine", "m": 2, "q": 2, "k": 2, "checks": ["theorem1"]},
        ],
    }
    path = write_json(tmp_path, "skips.json", campaign)
    assert run(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "[SKIP]" in out
    assert "CharacteristicTooSmall" in out
    assert "HypothesisViolated" in out


def test_tits_check_over_the_cap_is_skipped(tmp_path, capsys):
    # |SL_3(F_2)| = 168 exceeds a cap of 100
    campaign = {
        "instances": [
            {"model": "affine", "m": 3, "q": 2, "k": 1, "checks": ["tits"]},
        ],
    }
    path = write_json(tmp_path, "tits_cap.json", campaign)
    assert run(["verify", path, "--cap", "100", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["instances"][0]["results"][0]
    assert (result["status"], result["reason"]) == ("skipped", "EnumerationCapExceeded")


@pytest.mark.parametrize(
    "q,K,max_exp,bound", [(2, 5, 3, 6), (3, 9, 3, 9), (2, 3, 1, 3)]
)
def test_shallow_commutator_campaign_is_skipped_with_its_first_bound(
    tmp_path, capsys, q, K, max_exp, bound
):
    # K <= 3 max_exp: the detail names the bound of the first case, n
    # running fastest, that K cannot hold (m = 1 and the least such n),
    # not the largest bound, as the case-by-case check named it
    campaign = {
        "instances": [
            {"model": "affine", "q": q, "K": K, "max_exp": max_exp,
             "checks": ["commutator"]},
        ],
    }
    path = write_json(tmp_path, "shallow.json", campaign)
    assert run(["verify", path, "--json"]) == 0
    result = json.loads(capsys.readouterr().out)["instances"][0]["results"][0]
    assert result["status"] == "skipped"
    assert result["reason"] == "TruncationTooShallow"
    assert result["detail"] == f"need K > {bound} to keep every displayed entry"


def test_verify_failure_sets_exit_code(tmp_path, capsys):
    # two standard generators cannot generate this Sylow subgroup: its
    # Frattini quotient has dimension 3, so the check honestly fails
    campaign = {
        "name": "failing",
        "instances": [
            {"model": "affine", "m": 2, "q": 2, "k": 2,
             "checks": ["generation"]},
        ],
    }
    path = write_json(tmp_path, "failing.json", campaign)
    assert run(["verify", path]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_generation_check_at_k1_drops_only_the_corner_generators():
    # at k = 1 every corner generator is the identity; with r = 2 the
    # superdiagonal generators alone already give the whole group
    campaign = {
        "instances": [
            {"model": "affine", "m": 2, "q": 9, "k": 1, "checks": ["generation"]},
        ],
    }
    result = run_campaign(campaign)["instances"][0]["results"][0]
    assert result["status"] == "fail"
    assert result["payload"] == {"generates": True, "partial_order": 9, "full_order": 9}


def test_verify_rejects_unknown_check(tmp_path, capsys):
    campaign = {
        "instances": [
            {"model": "bch", "gcm": A2, "q": 5, "H": 3, "checks": ["nope"]},
        ],
    }
    path = write_json(tmp_path, "unknown.json", campaign)
    assert run(["verify", path]) == 2
    capsys.readouterr()


def test_verify_rejects_unknown_model(tmp_path, capsys):
    campaign = {"instances": [{"model": "bogus", "checks": ["roots"]}]}
    path = write_json(tmp_path, "model.json", campaign)
    assert run(["verify", path]) == 2
    capsys.readouterr()


def test_verify_rejects_bad_q(tmp_path, capsys):
    campaign = {
        "instances": [
            {"model": "affine", "m": 2, "q": 6, "k": 2,
             "checks": ["cor_linear"]},
        ],
    }
    path = write_json(tmp_path, "badq.json", campaign)
    assert run(["verify", path]) == 2
    capsys.readouterr()


def test_verify_report_roundtrip(tmp_path, capsys):
    campaign = {
        "name": "rt",
        "seed": 3,
        "instances": [
            {"model": "affine", "m": 2, "q": 3, "k": 2,
             "checks": ["cor_linear", "generation"]},
        ],
    }
    path = write_json(tmp_path, "rt.json", campaign)
    out_path = tmp_path / "stored.json"
    assert run(["verify", path, "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert run(["verify", path, "--verify-report", str(out_path)]) == 0
    assert "report matches" in capsys.readouterr().out


def test_verify_report_detects_tampering(tmp_path, capsys):
    campaign = {
        "name": "rt",
        "seed": 3,
        "instances": [
            {"model": "affine", "m": 2, "q": 3, "k": 2,
             "checks": ["cor_linear"]},
        ],
    }
    path = write_json(tmp_path, "rt.json", campaign)
    out_path = tmp_path / "stored.json"
    assert run(["verify", path, "--out", str(out_path)]) == 0
    capsys.readouterr()
    stored = json.loads(out_path.read_text())
    stored["instances"][0]["results"][0]["payload"]["h1"] = 99
    out_path.write_text(json.dumps(stored))
    assert run(["verify", path, "--verify-report", str(out_path)]) == 1
    assert "report mismatch" in capsys.readouterr().out


def test_verify_report_ignores_timing(tmp_path, capsys):
    campaign = {
        "name": "rt",
        "seed": 3,
        "instances": [
            {"model": "bch", "gcm": A2, "q": 5, "H": 3,
             "checks": ["theorem1"]},
        ],
    }
    path = write_json(tmp_path, "rt.json", campaign)
    out_path = tmp_path / "stored.json"
    assert run(["verify", path, "--out", str(out_path)]) == 0
    capsys.readouterr()
    stored = json.loads(out_path.read_text())
    result = stored["instances"][0]["results"][0]
    result["elapsed_ms"] = 10 ** 9
    result["payload"]["elapsed_ms"] = 10 ** 9
    out_path.write_text(json.dumps(stored))
    assert run(["verify", path, "--verify-report", str(out_path)]) == 0
    assert "report matches" in capsys.readouterr().out


def test_verify_json_output(tmp_path, capsys):
    campaign = {
        "instances": [
            {"model": "affine", "m": 2, "q": 3, "k": 1, "checks": ["tits"]},
        ],
    }
    path = write_json(tmp_path, "tits.json", campaign)
    assert run(["verify", path, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    payload = report["instances"][0]["results"][0]["payload"]
    assert payload == {
        "T1": True,
        "T2": True,
        "T3": True,
        "T4": True,
        "bruhat_partition": True,
    }


def test_seed_flag_overrides_campaign_seed(tmp_path):
    campaign = {
        "seed": 1,
        "instances": [
            {"model": "bch", "gcm": A2, "q": 5, "H": 3, "checks": ["roots"]},
        ],
    }
    report = run_campaign(campaign, seed=42)
    assert report["seed"] == 42
    report = run_campaign(campaign)
    assert report["seed"] == 1


def test_default_campaign_passes(tmp_path, capsys):
    out_path = tmp_path / "default.json"
    assert run(["verify", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert out.count("[SKIP]") == 2
    assert "CharacteristicTooSmall" in out
    assert "HypothesisViolated" in out
    # every result, skipped ones included, carries its own wall time
    results = [
        res
        for inst in json.loads(out_path.read_text())["instances"]
        for res in inst["results"]
    ]
    assert len(results) == 30
    assert {res["status"] for res in results} == {"pass", "skipped"}
    for res in results:
        assert type(res["elapsed_ms"]) is int and res["elapsed_ms"] >= 0


def test_default_campaign_covers_every_check():
    pairs = {
        (inst["model"], name)
        for inst in DEFAULT_CAMPAIGN["instances"]
        for name in inst["checks"]
    }
    assert pairs == {
        ("bch", "roots"),
        ("bch", "lie"),
        ("bch", "theorem1"),
        ("affine", "theorem1"),
        ("affine", "cor_linear"),
        ("affine", "generation"),
        ("affine", "commutator"),
        ("affine", "filtration"),
        ("affine", "tits"),
    }
    assert set(cli.CHECK_FIELDS) == set(cli.CHECKS) == pairs


def test_verify_rejects_whole_campaign_before_running(tmp_path, capsys, monkeypatch):
    def must_not_run(inst, seed, cap):
        raise AssertionError("a check ran")

    for key in list(cli.CHECKS):
        monkeypatch.setitem(cli.CHECKS, key, must_not_run)
    campaign = {
        "instances": [
            {"model": "bch", "gcm": A2, "q": 5, "H": 3, "checks": ["roots"]},
            {"model": "bch", "gcm": A2, "q": 5, "H": "3", "checks": ["roots"]},
            {"model": "affine", "m": 2, "q": 3, "k": 1, "checks": ["filtration"]},
        ],
    }
    path = write_json(tmp_path, "bad.json", campaign)
    out_path = tmp_path / "report.json"
    assert run(["verify", path, "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: instance 1: H must be an integer, got '3'",
        "error: instance 2: k must be at least 2, got 1",
    ]
    assert not out_path.exists()


@pytest.mark.parametrize(
    "instance,problem",
    [
        ({"model": "affine", "m": True, "q": 3, "k": 2, "checks": ["cor_linear"]},
         "m must be an integer, got True"),
        ({"model": "affine", "q": 3, "k": 2, "checks": ["generation"]},
         "missing the field 'm'"),
        ({"model": "affine", "m": 2, "q": 12, "k": 2, "checks": ["tits", "nope"]},
         "check 'nope' is not defined for model 'affine'"),
        ({"model": "bch", "gcm": [[2, 1], [1, 2]], "H": 3, "checks": ["lie"]},
         "invalid gcm: A[1][2] = 1 > 0"),
        ([], "an instance must be an object"),
    ],
)
def test_verify_names_each_problem(tmp_path, capsys, instance, problem):
    path = write_json(tmp_path, "bad.json", {"instances": [instance]})
    assert run(["verify", path]) == 2
    assert f"error: instance 0: {problem}" in capsys.readouterr().err.splitlines()


def test_affine_instance_enumerates_its_sylow_once_per_run(monkeypatch):
    calls = {"sylow_table": 0, "verify_generation": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(affine, "sylow_table", counting(affine, "sylow_table"))
    monkeypatch.setattr(cli, "verify_generation", counting(cli, "verify_generation"))
    # checks -> (sylow_table, verify_generation) calls per run: theorem 1
    # counts Frattini cosets and lists no Sylow, and generation and
    # filtration share one listing
    cases = [
        (["theorem1", "cor_linear", "generation", "filtration"], (1, 1)),
        (["cor_linear"], (0, 0)),
        (["filtration"], (1, 0)),
    ]
    for checks, (table_calls, generation_calls) in cases:
        campaign = {
            "instances": [{"model": "affine", "m": 2, "q": 3, "k": 2, "checks": checks}],
        }
        for runs in (1, 2):
            report = run_campaign(campaign)
            statuses = [r["status"] for r in report["instances"][0]["results"]]
            assert statuses == ["pass"] * len(checks)
            assert calls == {
                "sylow_table": runs * table_calls,
                "verify_generation": runs * generation_calls,
            }
        calls.update(dict.fromkeys(calls, 0))


def test_affine_instance_lists_its_sylow_once_per_run_when_refused(monkeypatch):
    calls = []
    original = affine.sylow_table

    def counting(sylow):
        calls.append(sylow.cap)
        return original(sylow)

    monkeypatch.setattr(affine, "sylow_table", counting)
    checks = ["theorem1", "cor_linear", "generation", "filtration"]
    campaign = {
        "instances": [{"model": "affine", "m": 2, "q": 3, "k": 2, "checks": checks}],
    }
    # the Sylow has order 81 and Phi order 9 and index 9, so theorem 1 fits
    # the cap; generation refuses on the order alone, and filtration on the
    # layered order of the closure
    skipped = [
        ("generation", "Sylow order 81 exceeds the cap of 50"),
        ("filtration", "subgroup order 81 exceeds the cap of 50"),
    ]
    for runs in (1, 2):
        results = run_campaign(campaign, cap=50)["instances"][0]["results"]
        assert [r["status"] for r in results[:2]] == ["pass", "pass"]
        assert cli._strip_volatile(results[2:]) == [
            {
                "check": check,
                "status": "skipped",
                "reason": "EnumerationCapExceeded",
                "detail": detail,
            }
            for check, detail in skipped
        ]
        assert calls == [50] * runs


def _count_bulk_products(monkeypatch):
    """Rows of every bulk product that an oracle of either model forms."""
    rows = []
    for cls in (AffineMatrixGroup, UnipotentModel):
        real = cls.oracle

        def oracle(model, real=real):
            plain = real(model)

            def mul_many(block, g):
                rows.append(len(block))
                return plain.mul_many(block, g)

            return dataclasses.replace(plain, mul_many=mul_many)

        monkeypatch.setattr(cls, "oracle", oracle)
    return rows


def _count_normal_closures(monkeypatch):
    calls = []
    real = pgroup.normal_closure
    monkeypatch.setattr(
        pgroup, "normal_closure", lambda *args, **kw: calls.append(1) or real(*args, **kw)
    )
    return calls


def test_affine_theorem1_refused_before_any_bulk_product(monkeypatch):
    # Phi has order 9 above a cap of 5: each check, in each run, refuses it
    # from its layered order, before the oracle forms a bulk product
    products = _count_bulk_products(monkeypatch)
    checks = ["theorem1", "cor_linear"]
    campaign = {
        "instances": [{"model": "affine", "m": 2, "q": 3, "k": 2, "checks": checks}],
    }
    for _ in range(2):
        results = run_campaign(campaign, cap=5)["instances"][0]["results"]
        assert cli._strip_volatile(results) == [
            {
                "check": check,
                "status": "skipped",
                "reason": "EnumerationCapExceeded",
                "detail": "normal closure order 9 exceeds the cap of 5",
            }
            for check in checks
        ]
    assert products == []


def test_an_index_over_the_cap_is_refused_before_phi_is_listed(monkeypatch):
    # Phi fits under the cap and its index does not: theorem 1 refuses the
    # index from the layered orders, in the matrix model a skip with the
    # message of subgroup_index, and in the BCH model a pass read from the
    # layered engine, and neither lists Phi or forms a bulk product
    products = _count_bulk_products(monkeypatch)
    closures = _count_normal_closures(monkeypatch)
    checks = ["theorem1", "cor_linear"]
    affine_case = {"instances": [{"model": "affine", "m": 3, "q": 5, "k": 1, "checks": checks}]}
    assert cli._strip_volatile(
        run_campaign(affine_case, cap=10)["instances"][0]["results"]
    ) == [
        {
            "check": check,
            "status": "skipped",
            "reason": "EnumerationCapExceeded",
            "detail": "index 25 exceeds the cap of 10",
        }
        for check in checks
    ]
    bch_case = {"instances": [{"model": "bch", "gcm": A2, "q": 25, "H": 3, "checks": ["theorem1"]}]}
    (result,) = run_campaign(bch_case, cap=100)["instances"][0]["results"]
    assert result["status"] == "pass"
    payload = result["payload"]
    assert payload["group_engine"] == "layered"
    assert payload["h1_blackbox"] is None
    assert payload["h1_layered"] == payload["h1_linear"] == payload["h1_predicted"] == 4
    assert payload["thm_ii_lhs_order"] == payload["thm_ii_rhs_order"] == 25
    assert payload["generators_generate"] is True
    assert closures == [] and products == []


@pytest.mark.parametrize("defect", mutants.DEFECTS, ids=lambda d: d.__name__)
def test_a_planted_defect_ends_the_bundled_campaign_in_a_verdict(capsys, defect):
    # each named defect fails some check of the bundled campaign; a check
    # whose leading-term map stops being a filtration's fails by name
    with defect():
        assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    if defect is mutants.bch_law_drops_a_term:
        assert "theorem1 (NotAFiltration)" in out


def test_not_a_filtration_is_a_failed_check(monkeypatch):
    def refuse(*args, **kwargs):
        raise NotAFiltration("level 2 after level 2 in one sift")

    monkeypatch.setattr(unipotent, "layered_order", refuse)
    campaign = {"instances": [{"model": "bch", "gcm": A2, "q": 5, "H": 3, "checks": ["theorem1"]}]}
    (result,) = run_campaign(campaign)["instances"][0]["results"]
    assert cli._strip_volatile(result) == {
        "check": "theorem1",
        "status": "fail",
        "reason": "NotAFiltration",
        "detail": "level 2 after level 2 in one sift",
    }


@pytest.mark.parametrize("m,q,k", [(3, 5, 2), (2, 5, 4)])
def test_affine_theorem1_past_the_cap_lists_no_sylow(monkeypatch, m, q, k):
    # Sylows of 5^11 and 5^10 elements, over the default cap; Phi and its
    # 5^(m r) cosets fit under it
    def must_not_list(sylow):
        raise AssertionError("the Sylow was listed")

    monkeypatch.setattr(affine, "sylow_table", must_not_list)
    assert affine.sylow_order(m, FqConfig(q), k) > cli.DEFAULT_CAP
    campaign = {
        "instances": [{"model": "affine", "m": m, "q": q, "k": k, "checks": ["theorem1"]}],
    }
    (result,) = run_campaign(campaign)["instances"][0]["results"]
    assert result["status"] == "pass"
    payload = result["payload"]
    assert payload["h1_blackbox"] == payload["h1_layered"] == payload["h1_predicted"] == m
    assert result["payload"]["generators_generate"] is True


def test_affine_theorem1_fails_when_the_layered_count_disagrees(monkeypatch):
    # a layered |Phi| three times too small: h1_layered reads 3 against the
    # enumeration's 2, and theorem 1 and its cor_linear view both fail
    real = pgroup.FrattiniCount.frattini_order.func
    wrong = property(lambda count: real(count) // 3)
    monkeypatch.setattr(pgroup.FrattiniCount, "frattini_order", wrong)
    campaign = {
        "instances": [
            {"model": "affine", "m": 2, "q": 3, "k": 2, "checks": ["theorem1", "cor_linear"]}
        ],
    }
    theorem1, cor_linear = run_campaign(campaign)["instances"][0]["results"]
    assert theorem1["status"] == cor_linear["status"] == "fail"
    payload = theorem1["payload"]
    assert (payload["h1_blackbox"], payload["h1_layered"]) == (2, 3)
    assert payload["generators_generate"] is True


def test_affine_frattini_seeds_are_formed_once_per_sylow(monkeypatch):
    # the layered |Phi| and the listed Phi of theorem 1, cor_linear and
    # filtration share one list of generator commutators and p-th powers
    formed = []
    real = pgroup.commutator
    monkeypatch.setattr(
        pgroup, "commutator", lambda *args: formed.append(1) or real(*args)
    )
    checks = ["theorem1", "cor_linear", "filtration"]
    campaign = {
        "instances": [{"model": "affine", "m": 2, "q": 9, "k": 2, "checks": checks}],
    }
    results = run_campaign(campaign)["instances"][0]["results"]
    assert [r["status"] for r in results] == ["pass"] * 3
    gens = len(affine.sylow_generators(2, FqConfig.from_q(9), 2))
    assert len(formed) == gens * (gens - 1) // 2


def test_filtration_and_tits_verdicts_without_bulk_left_products(monkeypatch):
    # every filtration and tits instance of the default and matrix stretch
    # campaigns, run again with matrix oracles that have no mul_pairs, so
    # that their left products are one scalar product per row
    with open(os.path.join(ROOT, "bench", "campaigns", "matrix_stretch.json")) as fh:
        stretch = json.load(fh)
    instances = [
        dict(inst, checks=[c for c in inst["checks"] if c in ("filtration", "tits")])
        for inst in DEFAULT_CAMPAIGN["instances"] + stretch["instances"]
    ]
    campaign = {"instances": [inst for inst in instances if inst["checks"]]}
    assert len(campaign["instances"]) == 7
    bulk = cli._strip_volatile(run_campaign(campaign))
    original = affine.AffineMatrixGroup.oracle
    monkeypatch.setattr(
        affine.AffineMatrixGroup,
        "oracle",
        lambda group: dataclasses.replace(original(group), mul_pairs=None),
    )
    assert cli._strip_volatile(run_campaign(campaign)) == bulk
    results = [r for inst in bulk["instances"] for r in inst["results"]]
    assert {r["status"] for r in results} == {"pass"}


def test_cor_linear_is_a_view_of_theorem1(monkeypatch):
    campaign = {
        "instances": [
            {"model": "affine", "m": 2, "q": 3, "k": 2, "checks": ["theorem1", "cor_linear"]},
        ],
    }
    theorem1, cor_linear = run_campaign(campaign)["instances"][0]["results"]
    assert cor_linear["payload"] == {
        "h1": theorem1["payload"]["h1_blackbox"],
        "predicted": theorem1["payload"]["h1_predicted"],
    } == {"h1": 2, "predicted": 2}
    # theorem 1 reads no membership scan; agreeing numbers without
    # generation (|Phi| [G : Phi] short of a Sylow order made larger) fail
    # both checks
    def must_not_scan(sylow):
        raise AssertionError("theorem 1 ran the membership scan")

    monkeypatch.setattr(affine, "verify_generation", must_not_scan)
    monkeypatch.setattr(affine, "sylow_order", lambda m, fq, k: 3 ** 5)
    results = run_campaign(campaign)["instances"][0]["results"]
    assert [r["status"] for r in results] == ["fail", "fail"]
    assert results[0]["payload"]["generators_generate"] is False
    assert results[1]["payload"] == {"h1": 2, "predicted": 2}
    # a closure short of the Sylow is a failed check, not an error
    monkeypatch.undo()
    upper = affine.sylow_generators(2, FqConfig(3), 2)[:1]
    monkeypatch.setattr(affine, "sylow_generators", lambda m, fq, k: upper)
    results = run_campaign(campaign)["instances"][0]["results"]
    assert [r["status"] for r in results] == ["fail", "fail"]
    assert results[0]["payload"]["generators_generate"] is False
    assert results[1]["payload"] == {"h1": 1, "predicted": 2}


def test_bch_instance_enumerates_its_roots_once_per_run(monkeypatch):
    calls = []
    original = cli.positive_roots_up_to_height

    def counting(gcm, bound):
        calls.append(bound)
        return original(gcm, bound)

    monkeypatch.setattr(cli, "positive_roots_up_to_height", counting)
    campaign = {"instances": [{"model": "bch", "gcm": AFF, "H": 4, "checks": ["roots", "lie"]}]}
    for runs in (1, 2):
        report = run_campaign(campaign)
        assert [r["status"] for r in report["instances"][0]["results"]] == ["pass"] * 2
        assert calls == [4] * runs


def test_affine_instance_lists_its_frattini_subgroup_once_per_run(monkeypatch):
    # theorem1 and cor_linear share one Frattini count, and filtration
    # reads Phi's table as the derived subgroup: every standard generator
    # has order p, so Phi = [G, G]
    calls = []
    original = pgroup.normal_closure

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(pgroup, "normal_closure", counting)
    campaign = {
        "instances": [
            {"model": "affine", "m": 2, "q": 3, "k": 3,
             "checks": ["theorem1", "cor_linear", "filtration"]},
        ],
    }
    for runs in (1, 2):
        report = run_campaign(campaign)
        assert [r["status"] for r in report["instances"][0]["results"]] == ["pass"] * 3
        assert len(calls) == runs


def _forbid_checks(monkeypatch):
    def must_not_run(inst, seed, cap):
        raise AssertionError("a check ran")

    for key in list(cli.CHECKS):
        monkeypatch.setitem(cli.CHECKS, key, must_not_run)


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_verify_rejects_a_cap_below_one(tmp_path, capsys, monkeypatch, cap):
    _forbid_checks(monkeypatch)
    assert run(["verify", "--cap", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: cap must be an integer of at least 1, got {cap}"
    ]


@pytest.mark.parametrize("stored", [None, "", "{not json", "[1, 2"])
def test_verify_rejects_an_unreadable_stored_report_before_running(
    tmp_path, capsys, monkeypatch, stored
):
    # a missing or malformed stored report is found before any check runs
    _forbid_checks(monkeypatch)
    path = tmp_path / "stored.json"
    if stored is not None:
        path.write_text(stored)
    assert run(["verify", "--verify-report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    if stored is None:
        assert str(path) in line


@pytest.mark.parametrize(
    "where", ["missing/report.json", ".", "empty.json/report.json"]
)
def test_verify_reports_an_unwritable_out_path(tmp_path, capsys, monkeypatch, where):
    # a report that cannot be written is a configuration error, not a
    # failed check, found before any check runs and with no traceback
    _forbid_checks(monkeypatch)
    write_json(tmp_path, "empty.json", {"instances": []})
    out_path = tmp_path / where
    assert run(["verify", "--out", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and str(out_path) in line


@pytest.mark.parametrize("old", [None, "an earlier report\n"])
def test_verify_leaves_the_out_file_alone_when_refused(tmp_path, capsys, old):
    # the report file is opened only once there is a report to write
    campaign = write_json(tmp_path, "bad.json", {"instances": [{"model": "nope"}]})
    out_path = tmp_path / "report.json"
    if old is not None:
        out_path.write_text(old)
    assert run(["verify", campaign, "--out", str(out_path)]) == 2
    assert capsys.readouterr().out == ""
    if old is None:
        assert not out_path.exists()
    else:
        assert out_path.read_text() == old


@pytest.mark.parametrize("cap", [0, -1, True, 2.0, "10"])
def test_run_campaign_rejects_a_cap_that_is_not_a_positive_int(cap):
    with pytest.raises(cli.CampaignError) as err:
        run_campaign(DEFAULT_CAMPAIGN, cap=cap)
    assert err.value.args == (f"cap must be an integer of at least 1, got {cap!r}",)


def test_cap_problem_is_listed_with_the_campaign_problems():
    campaign = {"instances": [{"model": "nope", "checks": ["roots"]}]}
    with pytest.raises(cli.CampaignError) as err:
        run_campaign(campaign, cap=0)
    assert err.value.args == (
        "cap must be an integer of at least 1, got 0",
        "instance 0: unknown model 'nope'",
    )
    assert run_campaign({"instances": []}, cap=1)["cap"] == 1
    assert run_campaign({"instances": []})["cap"] == cli.DEFAULT_CAP


# a passing theorem-1 report of each model, as verify_theorem1 and
# verify_theorem1_affine return it; the matrix model has no linear way, no
# Lazard way and no theorem-(ii) orders
PASSING_REPORTS = {
    "bch": {
        "h1_blackbox": 2, "h1_layered": 2, "h1_linear": 2, "h1_predicted": 2,
        "frattini_eq_derived": True, "generators_generate": True,
        "generators_generate_linear": True,
        "thm_ii_lhs_order": 5, "thm_ii_lhs_order_linear": 5,
        "thm_ii_rhs_order": 5, "thm_ii_rhs_order_linear": 5,
        "group_engine": "enumeration",
    },
    "affine": {
        "model": "affine_matrix", "gcm": None, "m": 2, "k": 2, "q": 3, "H": None,
        "h1_blackbox": 2, "h1_layered": 2, "h1_linear": None, "h1_predicted": 2,
        "frattini_eq_derived": True, "generators_generate": True,
        "thm_ii_lhs_order": None, "thm_ii_rhs_order": None,
    },
}
PLANTED_REPORTS = [
    ("bch", {}, True),
    ("bch", {"h1_blackbox": None, "group_engine": "layered"}, True),
    ("bch", {"h1_blackbox": 3}, False),
    ("bch", {"h1_layered": 3}, False),
    ("bch", {"h1_blackbox": None, "h1_linear": None}, False),
    ("bch", {"frattini_eq_derived": False}, False),
    ("bch", {"generators_generate": False}, False),
    ("bch", {"thm_ii_lhs_order_linear": 25}, False),
    ("bch", {"thm_ii_rhs_order_linear": 25}, False),
    ("bch", {"generators_generate_linear": False}, False),
    ("bch", {"thm_ii_rhs_order": 25, "thm_ii_rhs_order_linear": 25}, False),
    ("affine", {}, True),
    ("affine", {"h1_blackbox": 3}, False),
    ("affine", {"h1_blackbox": None}, False),
    ("affine", {"generators_generate": False}, False),
    ("affine", {"frattini_eq_derived": False}, False),
]
PLANTED_INSTANCES = {
    "bch": {"model": "bch", "gcm": A2, "q": 5, "H": 3, "checks": ["theorem1"]},
    "affine": {"model": "affine", "m": 2, "q": 3, "k": 2, "checks": ["theorem1", "cor_linear"]},
}


@pytest.mark.parametrize("model,changes,ok", PLANTED_REPORTS)
def test_theorem1_passes_only_when_every_way_agrees(monkeypatch, model, changes, ok):
    # one rule in both models; in the matrix model cor_linear reads it too,
    # so blackbox against layered, the layered way alone, no generation and
    # Phi other than [G, G] each fail theorem 1 and cor_linear alike
    report = dict(PASSING_REPORTS[model], **changes)
    monkeypatch.setattr(cli, "verify_theorem1", lambda *args, **kwargs: report)
    monkeypatch.setattr(cli, "verify_theorem1_affine", lambda sylow: report)
    campaign = {"instances": [PLANTED_INSTANCES[model]]}
    results = run_campaign(campaign)["instances"][0]["results"]
    assert [r["status"] for r in results] == ["pass" if ok else "fail"] * len(results)


@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_verify_ends_quietly_when_its_reader_has_gone(tmp_path, flags):
    # stdout is a pipe whose read end is closed before anything is printed:
    # the first write fails with EPIPE, which ended in a BrokenPipeError
    # traceback on stderr
    campaign = {"instances": [{"model": "bch", "gcm": A2, "H": 3, "checks": ["roots"]}]}
    path = write_json(tmp_path, "roots.json", campaign)
    read, write = os.pipe()
    os.close(read)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "kmsylow.cli", "verify", path, *flags],
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        )
    finally:
        os.close(write)
    assert child.returncode == 1
    assert child.stderr == ""
