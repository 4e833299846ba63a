"""How the benchmark scores a campaign report against its reference."""

import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from run import score  # noqa: E402

PASS = {"check": "theorem1", "status": "pass",
        "payload": {"h1_blackbox": 2, "h1_linear": 2, "elapsed_ms": 812}}
CAP_SKIP = {"check": "theorem1", "status": "skipped", "reason": "EnumerationCapExceeded",
            "detail": "closure exceeded the cap of 2097152 elements"}
PRECONDITION_SKIP = {"check": "theorem1", "status": "skipped", "reason": "HypothesisViolated",
                     "detail": "p = 2 must exceed the off-diagonal size 2"}


def _report(*results):
    return {"instances": [{"index": i, "results": [copy.deepcopy(r)]}
                          for i, r in enumerate(results)]}


def _outcome(result, ref):
    counts = score(_report(result), _report(ref))
    assert counts["attempted"] == 1
    (name,) = [k for k in ("completed", "incomplete", "failed") if counts[k]]
    return name


def test_equal_pass_completes_and_elapsed_ms_is_ignored():
    result = copy.deepcopy(PASS)
    result["payload"]["elapsed_ms"] = 5
    assert _outcome(result, PASS) == "completed"


def test_fail_status_fails():
    result = dict(copy.deepcopy(PASS), status="fail")
    assert _outcome(result, PASS) == "failed"


def test_cap_skip_recorded_in_reference_is_incomplete():
    assert _outcome(CAP_SKIP, CAP_SKIP) == "incomplete"


def test_cap_skip_not_in_reference_fails():
    assert _outcome(CAP_SKIP, PASS) == "failed"


def test_expected_precondition_skip_completes():
    assert _outcome(PRECONDITION_SKIP, PRECONDITION_SKIP) == "completed"


def test_precondition_skip_the_reference_lacks_fails():
    assert _outcome(PRECONDITION_SKIP, PASS) == "failed"


def test_changed_payload_field_fails():
    result = copy.deepcopy(PASS)
    result["payload"]["h1_linear"] = 3
    assert _outcome(result, PASS) == "failed"


def test_missing_payload_field_fails():
    result = copy.deepcopy(PASS)
    del result["payload"]["h1_linear"]
    assert _outcome(result, PASS) == "failed"


def test_extra_new_field_is_ignored():
    result = copy.deepcopy(PASS)
    result["payload"]["stats"] = {"mul": 12}
    assert _outcome(result, PASS) == "completed"


def test_formerly_cap_skipped_check_that_now_passes_completes():
    assert _outcome(PASS, CAP_SKIP) == "completed"


def test_missing_check_or_report_fails():
    assert score({"instances": []}, _report(PASS))["failed"] == 1
    assert score(None, _report(PASS, CAP_SKIP))["failed"] == 2


def test_counts_add_up_over_a_campaign():
    counts = score(_report(PASS, CAP_SKIP, PRECONDITION_SKIP),
                   _report(PASS, CAP_SKIP, PRECONDITION_SKIP))
    assert counts == {"attempted": 3, "completed": 2, "incomplete": 1, "failed": 0}
