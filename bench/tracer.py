"""Outside-in layer tracer for kmsylow.

The tracer changes no file of the package. It replaces each traced public
function, in every ``kmsylow`` module namespace that binds it, with a wrapper
that records one span per call, and puts every name back on ``uninstall``.
It also wraps the ``cli.CHECKS`` entries, the constructors of
``UnipotentModel`` and ``FqConfig``, and the ``mul``, ``inv`` and
``mul_many`` of the group oracles that both models return.

A span holds a name, its start and end (``time.perf_counter``), the index of
the span that was open when it started, a request id (workload, instance
index, check), a size (rows for ``mul_many``, table order for closures,
basis size for the Lie build) and whether it raised. Spans stay in memory
and are written out by ``write_spans``. ``layer_metrics`` turns them into the
per-layer metrics named in ``PER_LAYER``.
"""

import dataclasses
import gzip
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# module -> public functions wrapped in every kmsylow namespace that binds them
TRACED = {
    "pgroup": (
        "closure",
        "normal_closure",
        "subgroup_index",
        "check_filtration_lemma",
        "verify_tits_axioms",
    ),
    "unipotent": ("verify_theorem1",),
    "affine": (
        "sylow_table",
        "verify_generation",
        "congruence_subgroup",
        "enumerate_special_linear",
        "commutator_identity_check",
    ),
    "lie": ("build_positive_part", "bracket"),
    "fields": ("rref",),
    "bch": ("bch_lyndon_terms",),
    "roots": (
        "positive_roots_up_to_height",
        "positive_real_roots_up_to_height",
        "root_status",
        "weyl_apply",
    ),
    "gcm": ("classify", "validate_gcm"),
}

# cli.CHECKS key -> span name; the span's total time is the cli.*_s metric
CHECK_SPANS = {
    ("bch", "roots"): "cli.roots",
    ("bch", "lie"): "cli.lie",
    ("bch", "theorem1"): "cli.theorem1_bch",
    ("affine", "theorem1"): "cli.theorem1_affine",
    ("affine", "cor_linear"): "cli.cor_linear",
    ("affine", "generation"): "cli.generation",
    ("affine", "commutator"): "cli.commutator",
    ("affine", "filtration"): "cli.filtration",
    ("affine", "tits"): "cli.tits",
}

# (unit, better) of every per-layer metric, in report order
PER_LAYER = {
    **{f"{span}_s": ("s", "lower") for span in CHECK_SPANS.values()},
    "pgroup.closure.calls": ("count", "lower"),
    "pgroup.closure.self_s": ("s", "lower"),
    "pgroup.normal_closure.calls": ("count", "lower"),
    "pgroup.normal_closure.self_s": ("s", "lower"),
    "pgroup.subgroup_index.self_s": ("s", "lower"),
    "pgroup.check_filtration_lemma.self_s": ("s", "lower"),
    "pgroup.verify_tits_axioms.self_s": ("s", "lower"),
    "pgroup.elements_enumerated": ("count", "lower"),
    "pgroup.peak_table_order": ("count", "lower"),
    "pgroup.repeat_enumeration_ratio": ("ratio", "lower"),
    "pgroup.cap_exceeded": ("count", "lower"),
    "pgroup.failed_s": ("s", "lower"),
    "unipotent.model_init_s": ("s", "lower"),
    "unipotent.mul.calls": ("count", "lower"),
    "unipotent.mul.self_s": ("s", "lower"),
    "unipotent.mul_many.calls": ("count", "lower"),
    "unipotent.mul_many.rows": ("count", "lower"),
    "unipotent.mul_many.self_s": ("s", "lower"),
    "unipotent.mul_many.rows_per_s": ("1/s", "higher"),
    "unipotent.mul_many.bytes": ("bytes", "lower"),
    "unipotent.mul_many.distinct_g_max": ("count", "lower"),
    "unipotent.verify_theorem1.self_s": ("s", "lower"),
    "affine.mul.calls": ("count", "lower"),
    "affine.mul.self_s": ("s", "lower"),
    "affine.inv.calls": ("count", "lower"),
    "affine.mul_many.calls": ("count", "lower"),
    "affine.mul_many.rows": ("count", "lower"),
    "affine.mul_many.self_s": ("s", "lower"),
    "affine.mul_many.rows_per_s": ("1/s", "higher"),
    "affine.mul_many.bytes": ("bytes", "lower"),
    "affine.mul_many.distinct_g_max": ("count", "lower"),
    "affine.sylow_table.calls": ("count", "lower"),
    "affine.sylow_table.self_s": ("s", "lower"),
    "affine.verify_generation.self_s": ("s", "lower"),
    "affine.congruence_subgroup.self_s": ("s", "lower"),
    "affine.enumerate_special_linear.self_s": ("s", "lower"),
    "affine.commutator_identity_check.self_s": ("s", "lower"),
    "lie.build_positive_part.calls": ("count", "lower"),
    "lie.build_positive_part.q_self_s": ("s", "lower"),
    "lie.build_positive_part.fp_self_s": ("s", "lower"),
    "lie.basis_size": ("count", "lower"),
    "lie.bracket.calls": ("count", "lower"),
    "lie.bracket.self_s": ("s", "lower"),
    "fields.rref.calls": ("count", "lower"),
    "fields.rref.self_s": ("s", "lower"),
    "fields.fq_config.calls": ("count", "lower"),
    "fields.fq_config.self_s": ("s", "lower"),
    "bch.bch_lyndon_terms.calls": ("count", "lower"),
    "bch.bch_lyndon_terms.self_s": ("s", "lower"),
    "roots.positive_roots_up_to_height.self_s": ("s", "lower"),
    "roots.positive_real_roots_up_to_height.self_s": ("s", "lower"),
    "roots.root_status.calls": ("count", "lower"),
    "roots.root_status.self_s": ("s", "lower"),
    "roots.weyl_apply.calls": ("count", "lower"),
    "gcm.classify.self_s": ("s", "lower"),
    "gcm.validate_gcm.calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

OK, CAP_EXCEEDED, RAISED = 0, 1, 2


class Spans:
    """Columns of recorded spans; index i across the arrays is span i."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.requests = []
        self._request_ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.size = array("q")
        self.status = array("b")
        self._stack = []
        self.current_request = -1

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def request_id(self, request):
        if request not in self._request_ids:
            self._request_ids[request] = len(self.requests)
            self.requests.append(request)
        return self._request_ids[request]

    def open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.size.append(0)
        self.status.append(OK)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx, status=OK):
        self.end[idx] = self.clock()
        self.status[idx] = status
        self._stack.pop()

    def __len__(self):
        return len(self.name)

    def self_times(self):
        """Each span's duration minus the part its child spans cover.

        Calls are synchronous, so the children of one span never overlap
        and the part they cover is the sum of their durations."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, covered)]

    def to_json(self):
        return {
            "names": self.names,
            "requests": [list(r) for r in self.requests],
            "columns": ["name", "start", "end", "parent", "request", "size", "status"],
            "spans": [
                [self.name[i], self.start[i], self.end[i], self.parent[i],
                 self.request[i], self.size[i], self.status[i]]
                for i in range(len(self.name))
            ],
        }


def _traced(spans, name, fn, size=None):
    """fn wrapped so that every call records one span under name.

    size(args, result) gives the span's size, when it has one."""
    nid = spans.name_id(name)
    cap_error = sys.modules["kmsylow.errors"].EnumerationCapExceeded

    def wrapper(*args, **kwargs):
        idx = spans.open(nid)
        try:
            result = fn(*args, **kwargs)
        except cap_error:
            spans.close(idx, CAP_EXCEEDED)
            raise
        except BaseException:
            spans.close(idx, RAISED)
            raise
        spans.close(idx)
        if size is not None:
            spans.size[idx] = size(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _table_order(args, result):
    return len(result.elements)


def _basis_size(args, result):
    return result.dimension


def _rows(args, result):
    return len(args[0])


class Tracer:
    """Installs and removes the wrappers; derives the per-layer metrics."""

    def __init__(self, workload, base_seed):
        self.workload = workload
        self.base_seed = base_seed
        self.spans = Spans()
        self.counters = Counter()
        # distinct right factors passed to mul_many, one set per oracle;
        # every model in kmsylow makes one oracle and one compile cache
        self._distinct = {"unipotent": [], "affine": []}
        self._seen_closures = {}
        self._restore = []

    # ---- installation -------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper):
        """Bind wrapper wherever a kmsylow module binds original."""
        for modname, module in list(sys.modules.items()):
            if modname != "kmsylow" and not modname.startswith("kmsylow."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        import kmsylow.cli as cli
        from kmsylow.affine import AffineMatrixGroup
        from kmsylow.fields import FqConfig, RationalField
        from kmsylow.unipotent import UnipotentModel

        spans = self.spans
        for layer, names in TRACED.items():
            module = sys.modules[f"kmsylow.{layer}"]
            for name in names:
                original = getattr(module, name)
                if layer == "pgroup" and name in ("closure", "normal_closure"):
                    wrapper = self._closure_wrapper(f"pgroup.{name}", original)
                elif layer == "lie" and name == "build_positive_part":
                    wrapper = self._lie_build_wrapper(original, RationalField)
                else:
                    wrapper = _traced(spans, f"{layer}.{name}", original)
                self._rebind(original, wrapper)

        for key, fn in list(cli.CHECKS.items()):
            self._set_check(cli.CHECKS, key, fn)

        self._set(
            UnipotentModel,
            "__init__",
            _traced(spans, "unipotent.model_init", UnipotentModel.__init__),
        )
        self._set(
            FqConfig, "__init__", _traced(spans, "fields.fq_config", FqConfig.__init__)
        )
        for cls, layer in ((UnipotentModel, "unipotent"), (AffineMatrixGroup, "affine")):
            self._set(cls, "oracle", self._oracle_wrapper(layer, cls.oracle))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- wrappers that record more than a span ------------------------

    def _set_check(self, checks, key, fn):
        inner = _traced(self.spans, CHECK_SPANS.get(key, f"cli.{key[1]}"), fn)
        spans = self.spans
        workload, base_seed = self.workload, self.base_seed

        def check(inst, seed, cap):
            # cli passes the campaign seed plus the instance index
            spans.current_request = spans.request_id((workload, seed - base_seed, key[1]))
            try:
                return inner(inst, seed, cap)
            finally:
                spans.current_request = -1

        self._restore.append((checks, key, fn))
        checks[key] = check

    def _closure_wrapper(self, name, original):
        traced = _traced(self.spans, name, original, size=_table_order)
        signature = inspect.signature(original)
        spans = self.spans
        seen = self._seen_closures
        counters = self.counters

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            # generator sets are materialized once, so one-shot iterables
            # still reach the wrapped function intact
            sets = []
            for param in ("generators", "seeds", "conjugators"):
                if param in bound.arguments:
                    bound.arguments[param] = tuple(bound.arguments[param])
                    sets.append(frozenset(bound.arguments[param]))
            key = (name, len(bound.arguments["oracle"].identity), tuple(sets))
            request_seen = seen.setdefault(spans.current_request, set())
            counters["pgroup.closures"] += 1
            counters["pgroup.repeats"] += key in request_seen
            request_seen.add(key)
            return traced(*bound.args, **bound.kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    def _lie_build_wrapper(self, original, rational_field):
        over_q = _traced(self.spans, "lie.build_positive_part.q", original, size=_basis_size)
        over_fp = _traced(self.spans, "lie.build_positive_part.fp", original, size=_basis_size)

        def wrapper(*args, **kwargs):
            fld = args[2] if len(args) > 2 else kwargs.get("fld")
            traced = over_q if fld is None or isinstance(fld, rational_field) else over_fp
            return traced(*args, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    def _oracle_wrapper(self, layer, original):
        spans = self.spans
        distinct = self._distinct[layer]
        counters = self.counters
        bytes_name = f"{layer}.mul_many.bytes"

        def oracle(model):
            plain = original(model)
            seen = set()
            distinct.append(seen)
            mul_many = _traced(spans, f"{layer}.mul_many", plain.mul_many, size=_rows)

            def traced_mul_many(keys, g):
                seen.add(bytes(g))
                counters[bytes_name] += len(keys) * len(g) * 2
                return mul_many(keys, g)

            return dataclasses.replace(
                plain,
                mul=_traced(spans, f"{layer}.mul", plain.mul),
                inv=_traced(spans, f"{layer}.inv", plain.inv),
                mul_many=traced_mul_many,
            )

        oracle.__wrapped__ = original
        return oracle

    # ---- metrics ------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far, except
        trace.overhead_s, which needs an untraced run."""
        spans = self.spans
        dur, self_s = spans.self_times()
        calls, size, peak = Counter(), Counter(), Counter()
        total, own = defaultdict(float), defaultdict(float)
        for i in range(len(spans)):
            n = spans.names[spans.name[i]]
            calls[n] += 1
            total[n] += dur[i]
            own[n] += self_s[i]
            size[n] += spans.size[i]
            peak[n] = max(peak[n], spans.size[i])

        out = {}
        for span in CHECK_SPANS.values():
            out[f"{span}_s"] = total[span]
        for fn in ("closure", "normal_closure"):
            out[f"pgroup.{fn}.calls"] = calls[f"pgroup.{fn}"]
            out[f"pgroup.{fn}.self_s"] = own[f"pgroup.{fn}"]
        for fn in ("subgroup_index", "check_filtration_lemma", "verify_tits_axioms"):
            out[f"pgroup.{fn}.self_s"] = own[f"pgroup.{fn}"]
        out["pgroup.elements_enumerated"] = size["pgroup.closure"] + size["pgroup.normal_closure"]
        out["pgroup.peak_table_order"] = max(peak["pgroup.closure"], peak["pgroup.normal_closure"])
        closures = self.counters["pgroup.closures"]
        out["pgroup.repeat_enumeration_ratio"] = (
            self.counters["pgroup.repeats"] / closures if closures else 0.0
        )
        # a pgroup call that raised counts once, at its outermost pgroup span
        pgroup_ids = {i for i, name in enumerate(spans.names) if name.startswith("pgroup.")}
        cap_exceeded = 0
        failed_s = 0.0
        for i in range(len(spans)):
            if spans.status[i] == OK or spans.name[i] not in pgroup_ids:
                continue
            p = spans.parent[i]
            if p >= 0 and spans.name[p] in pgroup_ids and spans.status[p] != OK:
                continue
            failed_s += dur[i]
            cap_exceeded += spans.status[i] == CAP_EXCEEDED
        out["pgroup.cap_exceeded"] = cap_exceeded
        out["pgroup.failed_s"] = failed_s

        out["unipotent.model_init_s"] = total["unipotent.model_init"]
        for layer in ("unipotent", "affine"):
            out[f"{layer}.mul.calls"] = calls[f"{layer}.mul"]
            out[f"{layer}.mul.self_s"] = own[f"{layer}.mul"]
            if layer == "affine":
                out["affine.inv.calls"] = calls["affine.inv"]
            rows = size[f"{layer}.mul_many"]
            busy = own[f"{layer}.mul_many"]
            out[f"{layer}.mul_many.calls"] = calls[f"{layer}.mul_many"]
            out[f"{layer}.mul_many.rows"] = rows
            out[f"{layer}.mul_many.self_s"] = busy
            out[f"{layer}.mul_many.rows_per_s"] = rows / busy if busy else 0.0
            out[f"{layer}.mul_many.bytes"] = self.counters[f"{layer}.mul_many.bytes"]
            out[f"{layer}.mul_many.distinct_g_max"] = max(
                (len(s) for s in self._distinct[layer]), default=0
            )
        out["unipotent.verify_theorem1.self_s"] = own["unipotent.verify_theorem1"]
        out["affine.sylow_table.calls"] = calls["affine.sylow_table"]
        for fn in (
            "sylow_table",
            "verify_generation",
            "congruence_subgroup",
            "enumerate_special_linear",
            "commutator_identity_check",
        ):
            out[f"affine.{fn}.self_s"] = own[f"affine.{fn}"]

        out["lie.build_positive_part.calls"] = (
            calls["lie.build_positive_part.q"] + calls["lie.build_positive_part.fp"]
        )
        out["lie.build_positive_part.q_self_s"] = own["lie.build_positive_part.q"]
        out["lie.build_positive_part.fp_self_s"] = own["lie.build_positive_part.fp"]
        out["lie.basis_size"] = (
            size["lie.build_positive_part.q"] + size["lie.build_positive_part.fp"]
        )
        out["lie.bracket.calls"] = calls["lie.bracket"]
        out["lie.bracket.self_s"] = own["lie.bracket"]
        out["fields.rref.calls"] = calls["fields.rref"]
        out["fields.rref.self_s"] = own["fields.rref"]
        out["fields.fq_config.calls"] = calls["fields.fq_config"]
        out["fields.fq_config.self_s"] = own["fields.fq_config"]
        out["bch.bch_lyndon_terms.calls"] = calls["bch.bch_lyndon_terms"]
        out["bch.bch_lyndon_terms.self_s"] = own["bch.bch_lyndon_terms"]
        for fn in ("positive_roots_up_to_height", "positive_real_roots_up_to_height"):
            out[f"roots.{fn}.self_s"] = own[f"roots.{fn}"]
        out["roots.root_status.calls"] = calls["roots.root_status"]
        out["roots.root_status.self_s"] = own["roots.root_status"]
        out["roots.weyl_apply.calls"] = calls["roots.weyl_apply"]
        out["gcm.classify.self_s"] = own["gcm.classify"]
        out["gcm.validate_gcm.calls"] = calls["gcm.validate_gcm"]
        return out

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump(self.spans.to_json(), fh)
