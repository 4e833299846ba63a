"""kmsylow benchmark: ``kmsylow verify`` campaigns in fresh processes.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Untraced (``--trace 0``): the workload's frozen campaign, one fresh process
after another, with a few set-up probes (processes that only import
kmsylow) between campaigns, for as many campaigns as fit in ``--seconds``
(at least one). Every report is checked against the workload's
reference report. Prints the end-to-end metrics, each a median over the
run's processes, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Traced (``--trace 1``): one untraced and one traced campaign; the metrics are
the per-layer metrics of bench/tracer.py plus ``trace.overhead_s``. The two
reports must be equal.

Exits 2 without a result when the checkout holds no kmsylow sources.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("default", "bch_stretch", "matrix_stretch")
SETUP_PROBES = 3
RUN_LIMIT_S = 170

# skips that the paper's hypotheses require; they count as completed checks
PRECONDITION_SKIPS = ("CharacteristicTooSmall", "HypothesisViolated")
CAP_SKIP = "EnumerationCapExceeded"

END_TO_END = {
    "campaign_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "completed_share": "ratio",
}


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def _check_outcome(result, ref):
    """'completed', 'incomplete' or 'failed' for one check's result against
    its reference result (result is None when the check is missing)."""
    if result is None or result["status"] == "fail":
        return "failed"
    if ref["status"] == "skipped":
        if result["status"] == "skipped":
            if result["reason"] != ref["reason"]:
                return "failed"
            return "completed" if ref["reason"] in PRECONDITION_SKIPS else "incomplete"
        # a check that now passes where the reference hit the enumeration cap
        # asserts its numbers itself
        return "completed" if ref["reason"] == CAP_SKIP else "failed"
    if result["status"] == "skipped":
        return "failed"
    payload = _strip_volatile(result.get("payload", {}))
    for field, value in _strip_volatile(ref["payload"]).items():
        if field not in payload or payload[field] != value:
            return "failed"
    return "completed"


def score(report, reference):
    """Counts of completed, incomplete and failed checks of a report.

    A check fails when its status is ``fail``, when it is missing, when it is
    skipped for a reason the reference does not record, or when a field of
    its reference payload is missing or differs; ``elapsed_ms`` and fields
    the reference lacks are ignored. A check is incomplete when it is skipped
    for the non-precondition reason the reference records, such as the
    enumeration cap. ``failed_share`` is (incomplete + failed) / attempted.
    """
    counts = {"attempted": 0, "completed": 0, "incomplete": 0, "failed": 0}
    instances = {} if report is None else {i["index"]: i for i in report["instances"]}
    for ref_inst in reference["instances"]:
        results = {r["check"]: r for r in instances.get(ref_inst["index"], {}).get("results", [])}
        for ref in ref_inst["results"]:
            counts["attempted"] += 1
            counts[_check_outcome(results.get(ref["check"]), ref)] += 1
    return counts


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _child(args, deadline):
    """Run bench/child.py in a fresh interpreter; returns its result, with
    ``setup_s`` measured from just before the interpreter starts."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
    started = time.monotonic()
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark process exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - started
    return result


def _campaign(workload, seed, deadline, tag, trace=False):
    """One campaign in a fresh process, scored against its reference."""
    campaign = os.path.join(HERE, "campaigns", f"{workload}.json")
    report_path = os.path.join(OUT, f"{workload}-{tag}.json")
    args = ["--campaign", campaign, "--seed", str(seed), "--out", report_path]
    if trace:
        spans = os.path.join(OUT, f"{workload}-spans.json.gz")
        args += ["--trace-workload", workload, "--spans", spans]
    if os.path.exists(report_path):
        os.remove(report_path)
    result = _child(args, deadline)
    report = _load_json(report_path) if os.path.exists(report_path) else None
    reference = _load_json(os.path.join(HERE, "reference", f"{workload}.json"))
    result["report"] = report
    result["counts"] = score(report, reference)
    result["correct"] = result["exit_code"] == 0 and result["counts"]["failed"] == 0
    return result


def _summary(campaigns):
    counts = {k: sum(c["counts"][k] for c in campaigns) for k in campaigns[0]["counts"]}
    return {
        "correct": all(c["correct"] for c in campaigns),
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "counts": counts,
        "per_campaign": [c["counts"] for c in campaigns],
    }


def run_untraced(workload, seed, seconds):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    def probes():
        return [_child(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]

    # set-up probes are spread over the run, between campaigns, so that
    # their median sees the same machine as the campaigns
    setups = probes()
    campaigns = []
    while True:
        campaigns.append(_campaign(workload, seed, deadline, "run"))
        setups += [campaigns[-1]["setup_s"], *probes()]
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(campaigns) > seconds:
            break
    out = _summary(campaigns)
    counts = out["counts"]
    out["metrics"] = {
        "campaign_s": statistics.median(c["campaign_s"] for c in campaigns),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(c["peak_rss_mib"] for c in campaigns),
        "completed_share": counts["completed"] / counts["attempted"],
    }
    out["samples"] = {
        "campaign_s": [c["campaign_s"] for c in campaigns],
        "setup_s": setups,
        "peak_rss_mib": [c["peak_rss_mib"] for c in campaigns],
    }
    out["elapsed_s"] = time.monotonic() - start
    return out, END_TO_END


def run_traced(workload, seed):
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain = _campaign(workload, seed, deadline, "plain")
    traced = _campaign(workload, seed, deadline, "traced", trace=True)
    out = _summary([plain, traced])
    if _strip_volatile(plain["report"]) != _strip_volatile(traced["report"]):
        out["correct"] = False
        print("traced report differs from the untraced one", file=sys.stderr)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["campaign_s"] - plain["campaign_s"]
    out["metrics"] = {name: metrics[name] for name in PER_LAYER}
    out["elapsed_s"] = time.monotonic() - start
    return out, {name: unit for name, (unit, _) in PER_LAYER.items()}


def _print_summary(workload, seed, out, units):
    runs = out["per_campaign"]
    print(f"== {workload} (seed {seed}, {len(runs)} campaigns, {out['elapsed_s']:.1f} s)")
    for c in runs if any(c != runs[0] for c in runs) else runs[:1]:
        print(
            f"   checks per campaign: {c['attempted']} attempted, {c['completed']} completed, "
            f"{c['incomplete']} incomplete, {c['failed']} failed; "
            f"failed_share {c['incomplete'] + c['failed']}/{c['attempted']}"
        )
    print(f"   correct {str(out['correct']).lower()}")
    samples = out.get("samples", {})
    for name, value in out["metrics"].items():
        line = f"   {name:44s} {value:>16.6g} {units[name]}"
        if name in samples:
            xs = samples[name]
            line += f"   (median of {len(xs)}; min {min(xs):.4g}, max {max(xs):.4g})"
        print(line)


def _result_line(out, units):
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in out["metrics"].items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "kmsylow", "cli.py")):
        print(f"error: no kmsylow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        try:
            if args.trace:
                out, units = run_traced(workload, args.seed)
            else:
                out, units = run_untraced(workload, args.seed, args.seconds)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, OSError) as err:
            print(f"error: {workload}: {err}", file=sys.stderr)
            return 1
        _print_summary(workload, args.seed, out, units)
        results[workload] = _result_line(out, units)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
