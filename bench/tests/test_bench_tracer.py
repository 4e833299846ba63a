"""The benchmark's outside-in tracer: self time, coverage and clean removal."""

import os
import sys
from collections import Counter

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import kmsylow.cli as cli  # noqa: E402
from kmsylow.affine import AffineMatrixGroup  # noqa: E402
from kmsylow.fields import FqConfig  # noqa: E402
from kmsylow.unipotent import UnipotentModel  # noqa: E402
from run import _strip_volatile  # noqa: E402
from tracer import CHECK_SPANS, PER_LAYER, TRACED, Spans, Tracer  # noqa: E402

# every check once, each small; the cap of 100 sends the q = 7 BCH instance
# through the coset index and makes the A3 normal closure exceed the cap
TINY = {
    "name": "tiny",
    "seed": 7,
    "instances": [
        {"model": "bch", "gcm": [[2, -1], [-1, 2]], "q": 7, "H": 3,
         "checks": ["roots", "lie", "theorem1"]},
        {"model": "bch", "gcm": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "q": 5, "H": 3,
         "checks": ["theorem1"]},
        {"model": "affine", "m": 2, "q": 3, "k": 2,
         "checks": ["theorem1", "cor_linear", "generation", "filtration"]},
        {"model": "affine", "m": 2, "q": 3, "k": 1, "checks": ["tits"]},
        {"model": "affine", "q": 2, "K": 4, "max_exp": 1, "checks": ["commutator"]},
    ],
}
CAP = 100

BOUNDARIES = [
    *(f"{layer}.{name}" for layer, names in TRACED.items() for name in names
      if name != "build_positive_part"),
    "lie.build_positive_part.q",
    "lie.build_positive_part.fp",
    "unipotent.model_init",
    "fields.fq_config",
    *(f"{layer}.{op}" for layer in ("unipotent", "affine") for op in ("mul", "inv", "mul_many")),
    *CHECK_SPANS.values(),
]


def _namespaces():
    out = {}
    for modname, module in sys.modules.items():
        if modname == "kmsylow" or modname.startswith("kmsylow."):
            out[modname] = dict(vars(module))
    for cls in (UnipotentModel, AffineMatrixGroup, FqConfig):
        out[cls.__name__] = dict(cls.__dict__)
    out["CHECKS"] = dict(cli.CHECKS)
    return out


def _same_bindings(before, after):
    return before.keys() == after.keys() and all(
        before[ns].keys() == after[ns].keys()
        and all(before[ns][k] is after[ns][k] for k in before[ns])
        for ns in before
    )


def test_self_time_subtracts_what_child_spans_cover():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    spans = Spans(clock=lambda: next(ticks))
    a_id, b_id = spans.name_id("a"), spans.name_id("b")
    a = spans.open(a_id)        # 0 .. 10
    b = spans.open(b_id)        # 1 .. 3
    spans.close(b)
    c = spans.open(b_id)        # 4 .. 8
    d = spans.open(a_id)        # 5 .. 6, nested two deep
    spans.close(d)
    spans.close(c)
    spans.close(a)
    dur, own = spans.self_times()
    assert dur == [10.0, 2.0, 4.0, 1.0]
    assert own == [4.0, 2.0, 3.0, 1.0]
    assert list(spans.parent) == [-1, 0, 0, 2]


def test_layer_self_times_sum_over_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0])
    tracer = Tracer("w", 0)
    tracer.spans = Spans(clock=lambda: next(ticks))
    outer = tracer.spans.name_id("pgroup.normal_closure")
    inner = tracer.spans.name_id("unipotent.mul")
    top = tracer.spans.open(outer)
    for _ in range(3):
        idx = tracer.spans.open(inner)
        tracer.spans.close(idx)
    tracer.spans.close(top)
    metrics = tracer.layer_metrics()
    assert metrics["pgroup.normal_closure.calls"] == 1
    assert metrics["pgroup.normal_closure.self_s"] == 10.0 - 2.0 - 1.0 - 2.0
    assert metrics["unipotent.mul.calls"] == 3
    assert metrics["unipotent.mul.self_s"] == 5.0


def test_tracer_sees_every_boundary_and_restores_every_name():
    plain = cli.run_campaign(TINY, cap=CAP)
    before = _namespaces()
    tracer = Tracer("tiny", TINY["seed"])
    with tracer:
        assert not _same_bindings(before, _namespaces())
        traced = cli.run_campaign(TINY, cap=CAP)
    assert _same_bindings(before, _namespaces())
    assert _strip_volatile(traced) == _strip_volatile(plain)

    spans = tracer.spans
    calls = Counter(spans.names[n] for n in spans.name)
    assert [name for name in BOUNDARIES if not calls[name]] == []
    # verify_theorem1 calls closure through the unipotent namespace's binding
    assert any(
        spans.names[spans.name[i]] == "pgroup.closure"
        and spans.names[spans.name[spans.parent[i]]] == "unipotent.verify_theorem1"
        for i in range(len(spans))
    )

    metrics = tracer.layer_metrics()
    assert set(metrics) == set(PER_LAYER) - {"trace.overhead_s"}
    assert metrics["pgroup.cap_exceeded"] == 1
    assert metrics["pgroup.failed_s"] > 0
    assert metrics["unipotent.mul_many.distinct_g_max"] > 0
    assert metrics["affine.mul_many.distinct_g_max"] > 0
    requests = {r[2] for r in tracer.spans.requests}
    assert requests == {check for inst in TINY["instances"] for check in inst["checks"]}
