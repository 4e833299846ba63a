"""Command-line front end: classification, root listings, and verification
campaigns with JSON reports."""

import argparse
import errno
import json
import os
import random
import sys
import time
from functools import cached_property

import numpy as np

from .affine import (
    IwahoriSylow,
    borel_subgroup,
    commutator_identity_check,
    congruence_subgroup,
    enumerate_special_linear,
    monomial_subgroup,
    special_linear_order,
    verify_generation,
    verify_theorem1_affine,
    weyl_representatives,
)
from .errors import (
    CharacteristicTooSmall,
    EnumerationCapExceeded,
    GcmError,
    HypothesisViolated,
    NotAFiltration,
    TruncationTooShallow,
)
from .fields import FqConfig, add_scaled
from .gcm import classify, validate_gcm
from .lie import bracket, build_positive_part
from .pgroup import (
    DEFAULT_CAP,
    check_filtration_lemma,
    closure,
    verify_tits_axioms,
)
from .roots import (
    IMAGINARY,
    REAL,
    positive_real_roots_up_to_height,
    positive_roots_up_to_height,
    root_status,
    roots_to_json,
    simple_root,
    weyl_apply,
)
from .unipotent import verify_theorem1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2

# precondition violations turn a check into a skip, named by error class
SKIP_ERRORS = (
    CharacteristicTooSmall,
    HypothesisViolated,
    TruncationTooShallow,
    EnumerationCapExceeded,
)
# a leading-term map that is no filtration's, as under a broken law, fails
FAIL_ERRORS = (NotAFiltration,)


class CampaignError(Exception):
    """A campaign that cannot run; its args are the problems found."""


DEFAULT_CAMPAIGN = {
    "name": "default",
    "seed": 20260819,
    "instances": [
        {"model": "bch", "gcm": [[2, -1], [-1, 2]], "q": 5, "H": 3,
         "checks": ["roots", "lie", "theorem1"]},
        {"model": "bch", "gcm": [[2, -1], [-1, 2]], "q": 25, "H": 3,
         "checks": ["theorem1"]},
        {"model": "bch", "gcm": [[2, -1], [-2, 2]], "q": 5, "H": 4,
         "checks": ["theorem1"]},
        {"model": "bch", "gcm": [[2, -1], [-3, 2]], "q": 5, "H": 4,
         "checks": ["roots", "lie", "theorem1"]},
        {"model": "bch", "gcm": [[2, -1], [-3, 2]], "q": 7, "H": 4,
         "checks": ["theorem1"]},
        {"model": "bch", "gcm": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
         "q": 5, "H": 4, "checks": ["theorem1"]},
        {"model": "bch", "gcm": [[2, -2], [-2, 2]], "q": 5, "H": 4,
         "checks": ["roots", "lie"]},
        # skipped: p = 2 does not exceed the height cutoff
        {"model": "bch", "gcm": [[2, -1], [-1, 2]], "q": 4, "H": 3,
         "checks": ["theorem1"]},
        # skipped: p = 2 does not exceed the off-diagonal size 2
        {"model": "affine", "m": 2, "q": 2, "k": 2, "checks": ["theorem1"]},
        {"model": "affine", "m": 2, "q": 3, "k": 2,
         "checks": ["theorem1", "cor_linear", "generation"]},
        {"model": "affine", "m": 2, "q": 3, "k": 3,
         "checks": ["cor_linear", "generation", "filtration"]},
        {"model": "affine", "m": 2, "q": 9, "k": 2, "checks": ["cor_linear"]},
        {"model": "affine", "m": 3, "q": 3, "k": 2, "checks": ["cor_linear"]},
        {"model": "affine", "m": 3, "q": 2, "k": 2, "checks": ["generation"]},
        {"model": "affine", "m": 2, "q": 3, "k": 4, "checks": ["filtration"]},
        {"model": "affine", "q": 2, "K": 10, "max_exp": 3,
         "checks": ["commutator"]},
        {"model": "affine", "q": 3, "K": 10, "max_exp": 3,
         "checks": ["commutator"]},
        {"model": "affine", "q": 4, "K": 10, "max_exp": 3,
         "checks": ["commutator"]},
        {"model": "affine", "m": 2, "q": 2, "k": 1, "checks": ["tits"]},
        {"model": "affine", "m": 2, "q": 3, "k": 1, "checks": ["tits"]},
        {"model": "affine", "m": 3, "q": 2, "k": 1, "checks": ["tits"]},
    ],
}


# fields each check reads, with the least value of each integer field;
# gcm and q are parsed instead
CHECK_FIELDS = {
    ("bch", "roots"): {"gcm": None, "H": 1},
    ("bch", "lie"): {"gcm": None, "H": 1},
    ("bch", "theorem1"): {"gcm": None, "q": None, "H": 1},
    ("affine", "theorem1"): {"m": 2, "q": None, "k": 1},
    ("affine", "cor_linear"): {"m": 2, "q": None, "k": 1},
    ("affine", "generation"): {"m": 2, "q": None, "k": 1},
    ("affine", "commutator"): {"q": None, "K": 1, "max_exp": 1},
    ("affine", "filtration"): {"m": 2, "q": None, "k": 2},
    ("affine", "tits"): {"m": 2, "q": None},
}


def _load_gcm_value(value):
    if isinstance(value, dict):
        return validate_gcm(value["matrix"], labels=value.get("labels"))
    return validate_gcm(value)


def _parse_instance(inst):
    """(problems, F_q, GCM) of one campaign instance."""
    if not isinstance(inst, dict):
        return ["an instance must be an object"], None, None
    model, checks = inst.get("model"), inst.get("checks")
    if model not in ("bch", "affine"):
        return [f"unknown model {model!r}"], None, None
    if not isinstance(checks, list) or not checks:
        return ["checks must be a nonempty list"], None, None
    problems, least = [], {}
    for name in checks:
        fields = CHECK_FIELDS.get((model, name)) if isinstance(name, str) else None
        if fields is None:
            problems.append(f"check {name!r} is not defined for model {model!r}")
        for field, low in (fields or {}).items():
            least[field] = max(least.get(field) or 0, low or 0)
    fq = gcm = None
    for field, low in least.items():
        value = inst.get(field)
        if field not in inst:
            problems.append(f"missing the field {field!r}")
        elif field == "gcm":
            try:
                gcm = _load_gcm_value(value)
            except (TypeError, ValueError, KeyError, GcmError) as err:
                problems.append(f"invalid gcm: {err}")
        elif field == "q":
            try:
                fq = FqConfig.from_q(value)
            except ValueError as err:
                problems.append(str(err))
        elif type(value) is not int:
            problems.append(f"{field} must be an integer, got {value!r}")
        elif value < low:
            problems.append(f"{field} must be at least {low}, got {value}")
    return problems, fq, gcm


def _parse_campaign(campaign, seed, cap):
    """(fields, F_q, GCM) of every instance; raises CampaignError listing
    every problem with the campaign and the cap."""
    problems = []
    if type(cap) is not int or cap < 1:
        problems.append(f"cap must be an integer of at least 1, got {cap!r}")
    if not isinstance(campaign, dict) or not isinstance(
        campaign.get("instances"), list
    ):
        raise CampaignError(
            *problems, "campaign must be an object with an instances list"
        )
    if seed is None and type(campaign.get("seed", 0)) is not int:
        problems.append(f"seed must be an integer, got {campaign['seed']!r}")
    parsed = []
    for index, inst in enumerate(campaign["instances"]):
        found, fq, gcm = _parse_instance(inst)
        problems += [f"instance {index}: {problem}" for problem in found]
        parsed.append((inst, fq, gcm))
    if problems:
        raise CampaignError(*problems)
    return parsed


class _Instance(dict):
    """The fields of one parsed instance, with its F_q and GCM, the tagged
    positive roots that its roots and lie checks share, and the IwahoriSylow
    that its affine checks share, each made on first use.  Every run of an
    instance makes a new one, so nothing outlives the instance."""

    def __init__(self, fields, fq, gcm, cap):
        super().__init__(fields)
        self.fq, self.gcm, self.cap = fq, gcm, cap

    @cached_property
    def roots(self):
        return positive_roots_up_to_height(self.gcm, self["H"])

    @cached_property
    def sylow(self):
        return IwahoriSylow(self["m"], self.fq, self["k"], self.cap)


def _check_roots(inst, seed, cap):
    gcm, cutoff = inst.gcm, inst["H"]
    tagged = inst.roots
    real = {alpha for alpha, tag in tagged if tag == REAL}
    imaginary = {alpha for alpha, tag in tagged if tag == IMAGINARY}
    ok = real == set(positive_real_roots_up_to_height(gcm, cutoff))
    for alpha in real:
        status = root_status(gcm, alpha)
        replay = weyl_apply(gcm, status.word, simple_root(status.simple))
        ok = ok and replay == alpha
    rng = random.Random(seed)
    labels = list(gcm.labels)
    samples = 0
    for alpha, tag in sorted(tagged, key=lambda t: (t[0].items,)):
        for _ in range(3):
            word = tuple(
                labels[rng.randrange(len(labels))]
                for _ in range(rng.randrange(1, 5))
            )
            moved = weyl_apply(gcm, word, alpha)
            ok = ok and root_status(gcm, moved).tag == tag
            samples += 1
    payload = {
        "real": len(real),
        "imaginary": len(imaginary),
        "invariance_samples": samples,
    }
    return payload, ok


def _check_lie(inst, seed, cap):
    gcm, cutoff = inst.gcm, inst["H"]
    algebra = build_positive_part(gcm, cutoff)
    tagged = inst.roots
    supports = {alpha for alpha, _ in tagged}
    ok = set(algebra.by_degree) == supports
    for alpha, tag in tagged:
        mult = len(algebra.by_degree.get(alpha, ()))
        if tag == REAL:
            ok = ok and mult == 1
        else:
            ok = ok and mult >= 1
    fld = algebra.field
    dim = algebra.dimension
    rng = random.Random(seed)
    triples = min(500, dim ** 3)
    for _ in range(triples):
        i, j, k = (rng.randrange(dim) for _ in range(3))
        x, y, z = ({i: fld.one}, {j: fld.one}, {k: fld.one})
        acc = {}
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            add_scaled(acc, fld.one, bracket(algebra, a, bracket(algebra, b, c)), fld)
        ok = ok and not acc
    payload = {
        "dimensions_per_height": algebra.dimensions_per_height(),
        "jacobi_samples": triples,
    }
    return payload, ok


def _check_theorem1(inst, seed, cap):
    if inst["model"] == "affine":
        report = verify_theorem1_affine(inst.sylow)
    else:
        report = verify_theorem1(inst.gcm, inst.fq, inst["H"], cap=cap)
        report = dict(report, model="bch", thm_ii_asserted=classify(inst.gcm).tag == "finite")
    # one rule in both models: at least two h1 ways ran (enumeration may
    # not), all equal to the prediction; Phi = [G, G]; every generation way
    # reported holds; each theorem-(ii) order equals its Lazard twin where
    # given, and lhs = rhs where asserted (a finite-type GCM)
    computed = [report[k] for k in ("h1_blackbox", "h1_layered", "h1_linear")]
    computed = [h1 for h1 in computed if h1 is not None]
    lhs, rhs = report["thm_ii_lhs_order"], report["thm_ii_rhs_order"]
    ok = (
        len(computed) >= 2
        and set(computed) == {report["h1_predicted"]}
        and report["frattini_eq_derived"]
        and report["generators_generate"]
        and report.get("generators_generate_linear", True)
        and report.get("thm_ii_lhs_order_linear", lhs) == lhs
        and report.get("thm_ii_rhs_order_linear", rhs) == rhs
    )
    if report.get("thm_ii_asserted"):
        ok = ok and lhs == rhs
    return report, ok


def _check_cor_linear(inst, seed, cap):
    # a view of theorem 1: the same report, read by the same criterion
    report, ok = _check_theorem1(inst, seed, cap)
    return {"h1": report["h1_blackbox"], "predicted": report["h1_predicted"]}, ok


def _check_generation(inst, seed, cap):
    sylow, fq = inst.sylow, inst.fq
    generate = verify_generation(sylow)
    partial = closure(
        sylow.generators[: -fq.r], sylow.group.oracle(), cap=cap, p=fq.p
    )
    payload = {
        "generates": generate,
        "partial_order": partial.order,
        "full_order": sylow.order,
    }
    return payload, generate and partial.order < sylow.order


def _check_commutator(inst, seed, cap):
    fq, K, max_exp = inst.fq, inst["K"], inst["max_exp"]
    # every (r, s, m, n), n running fastest, in one broadcast check
    r, s, m, n = np.indices((fq.q, fq.q, max_exp, max_exp)).reshape(4, -1)
    ok = commutator_identity_check(fq, r, s, m + 1, n + 1, K)
    return {"cases": len(ok)}, bool(ok.all())


def _check_filtration(inst, seed, cap):
    sylow = inst.sylow
    table = sylow.table
    # Phi = [G,G]: the standard generators are elementaries of order p
    V = sylow.frattini[0]
    chain = [congruence_subgroup(sylow, i) for i in range(2, sylow.k + 1)]
    report = check_filtration_lemma(table, chain, V)
    ok = (
        all(report["normal"])
        and report["hypothesis_holds"]
        and bool(report["conclusion_holds"])
    )
    return report, ok


def _check_tits(inst, seed, cap):
    m, fq = inst["m"], inst.fq
    try:
        group, table = enumerate_special_linear(m, fq, cap=cap)
    except EnumerationCapExceeded:
        if special_linear_order(m, fq) > cap:
            raise
        # the closure ran past |SL_m(F_q)|: no group law, so T1 fails
        return dict(T1=False, T2=None, T3=None, T4=None, bruhat_partition=None), False
    B = borel_subgroup(group, table)
    N = monomial_subgroup(group, table)
    report = verify_tits_axioms(table, B, N, weyl_representatives(group), cap=cap)
    return dict(report), all(report.values())


CHECKS = {
    ("bch", "roots"): _check_roots,
    ("bch", "lie"): _check_lie,
    ("bch", "theorem1"): _check_theorem1,
    ("affine", "theorem1"): _check_theorem1,
    ("affine", "cor_linear"): _check_cor_linear,
    ("affine", "generation"): _check_generation,
    ("affine", "commutator"): _check_commutator,
    ("affine", "filtration"): _check_filtration,
    ("affine", "tits"): _check_tits,
}


def _run_instance(index, parsed, seed, cap):
    inst = _Instance(*parsed, cap)
    model = inst["model"]
    results = []
    for name in inst["checks"]:
        t0 = time.perf_counter()
        try:
            payload, ok = CHECKS[(model, name)](inst, seed + index, cap)
        except SKIP_ERRORS + FAIL_ERRORS as err:
            result = {
                "check": name,
                "status": "fail" if isinstance(err, FAIL_ERRORS) else "skipped",
                "reason": type(err).__name__,
                "detail": str(err),
            }
        else:
            result = {
                "check": name,
                "status": "pass" if ok else "fail",
                "payload": payload,
            }
        result["elapsed_ms"] = int(round((time.perf_counter() - t0) * 1000))
        results.append(result)
    params = {k: v for k, v in inst.items() if k not in ("model", "checks")}
    return {"index": index, "model": model, "params": params, "results": results}


def run_campaign(campaign, seed=None, cap=None):
    """Run every check of a campaign and return the report.  The whole
    campaign and the cap (default DEFAULT_CAP) are validated first: a
    CampaignError lists every problem, and then no check has run."""
    cap = DEFAULT_CAP if cap is None else cap
    parsed = _parse_campaign(campaign, seed, cap)
    seed = campaign.get("seed", 0) if seed is None else seed
    return {
        "campaign": campaign.get("name", "unnamed"),
        "seed": seed,
        "cap": cap,
        "instances": [
            _run_instance(i, inst, seed, cap) for i, inst in enumerate(parsed)
        ],
    }


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_volatile(v) for k, v in obj.items() if k != "elapsed_ms"
        }
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def _summarize(report, out):
    for inst in report["instances"]:
        label = f"instance {inst['index']} ({inst['model']})"
        for res in inst["results"]:
            if res["status"] == "pass":
                print(f"[PASS] {label} {res['check']}", file=out)
            elif res["status"] == "skipped":
                print(
                    f"[SKIP] {label} {res['check']} ({res['reason']})", file=out
                )
            else:
                reason = f" ({res['reason']})" if "reason" in res else ""
                print(f"[FAIL] {label} {res['check']}{reason}", file=out)


def _cmd_classify(args, out):
    try:
        with open(args.gcm_file) as fh:
            data = json.load(fh)
        gcm = _load_gcm_value(data)
    except (OSError, ValueError, KeyError, GcmError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    result = classify(gcm)
    if args.json:
        print(
            json.dumps(
                {
                    "type": result.tag,
                    "blocks": [
                        {"labels": list(labels), "type": tag}
                        for labels, tag in result.blocks
                    ],
                    "indecomposable": result.is_indecomposable,
                },
                indent=2,
                sort_keys=True,
            ),
            file=out,
        )
    else:
        print(result.tag, file=out)
        for labels, tag in result.blocks:
            print(f"  block {list(labels)}: {tag}", file=out)
    return EXIT_OK


def _cmd_roots(args, out):
    try:
        with open(args.gcm_file) as fh:
            data = json.load(fh)
        gcm = _load_gcm_value(data)
        if args.height < 1:
            raise ValueError("height must be at least 1")
    except (OSError, ValueError, KeyError, GcmError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    tagged = positive_roots_up_to_height(gcm, args.height)
    rows = roots_to_json(gcm, tagged)
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True), file=out)
    else:
        for row in rows:
            print(
                f"{row['coords']} height={row['height']} {row['status']}",
                file=out,
            )
        print(f"{len(rows)} positive roots", file=out)
    return EXIT_OK


def _refuse_unwritable(path):
    """Raise the OSError that opening path for writing would raise when it
    names a directory or its parent is missing or not a directory; nothing
    is created or truncated."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _cmd_verify(args, out):
    try:
        if args.campaign_file:
            with open(args.campaign_file) as fh:
                campaign = json.load(fh)
        else:
            campaign = DEFAULT_CAMPAIGN
        # a stored report that cannot be read is refused before any check
        if args.verify_report:
            with open(args.verify_report) as fh:
                stored = json.load(fh)
        # so is a report path that cannot be written
        if args.out:
            _refuse_unwritable(args.out)
        report = run_campaign(campaign, seed=args.seed, cap=args.cap)
    except CampaignError as err:
        for problem in err.args:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_CONFIG
    if args.verify_report:
        same = _strip_volatile(stored) == _strip_volatile(report)
        print(
            "report matches" if same else "report mismatch",
            file=out,
        )
        if not same:
            return EXIT_CHECK_FAILED
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        _summarize(report, out)
    results = [res for inst in report["instances"] for res in inst["results"]]
    return EXIT_CHECK_FAILED if any(r["status"] == "fail" for r in results) else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kmsylow",
        description=(
            "Verification toolkit for truncated Kac-Moody Sylow models"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify a generalized Cartan matrix"
    )
    p_classify.add_argument("gcm_file")
    p_classify.add_argument("--json", action="store_true")

    p_roots = sub.add_parser("roots", help="list positive roots up to a height")
    p_roots.add_argument("gcm_file")
    p_roots.add_argument("--height", type=int, required=True)
    p_roots.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run a verification campaign")
    p_verify.add_argument("campaign_file", nargs="?")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--cap", type=int, default=None)
    p_verify.add_argument("--out")
    p_verify.add_argument(
        "--verify-report",
        dest="verify_report",
        help="recompute and compare against a stored report",
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    out = sys.stdout
    if args.command == "classify":
        return _cmd_classify(args, out)
    if args.command == "roots":
        return _cmd_roots(args, out)
    return _cmd_verify(args, out)


if __name__ == "__main__":
    sys.exit(main())
