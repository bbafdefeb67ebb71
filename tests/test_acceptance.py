"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Budgets (wall-clock ceilings) are asserted too.

Each suite runs once per module, at seed 0 and its default trial counts, and
its report is also held to the ``rigidkit --json verify --suite NAME``
payload recorded in ``tests/golden/verify_payloads.json`` (``timing_ms``
removed).  The golden file is written by ``python tests/test_acceptance.py
--write`` from a checkout with ``src`` on the path.  Rewrite it only for an
intended change of a report, and say which suites changed and why.
"""

import contextlib
import io
import json
import os
import sys
import time

import pytest

from rigidkit import acceptance, spindex, toric
from rigidkit.cli import main as cli_main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verify_payloads.json")

BUDGETS = {"ring-cpn": 5, "quadric": 5, "complex-product": 60, "index": 120,
           "toric": 5, "qstate": 30}


def _run(name):
    t0 = time.perf_counter()
    rep = acceptance.SUITES[name](seed=0)
    elapsed = time.perf_counter() - t0
    status = "PASS" if rep["passed"] else "FAIL"
    print(f"[{status}] {name} ({elapsed:.1f}s)")
    assert rep["passed"], rep
    budget = BUDGETS[name]
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.1f}s"
    return rep


@pytest.fixture(scope="module")
def reports():
    """Each suite's report at seed 0, run on first use and kept for the module."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = _run(name)
        return cache[name]
    return get


def verify_payload(name):
    """Exit code and --json report of `verify --suite name`, timing removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["--json", "verify", "--suite", name])
    report = json.loads(out.getvalue())
    report.pop("timing_ms")
    return {"exit": code, "report": report}


def test_criterion_1_projective_rings(reports):
    rep = reports("ring-cpn")
    for n in range(1, 5):
        assert rep[f"cpn{n}"]["semisimple"] == "semisimple"


def test_criterion_2_quadric(reports):
    rep = reports("quadric")
    assert all(rep["checks"].values())


def test_criterion_3_decorated_complexes(reports):
    rep = reports("complex-product")
    assert rep["product_formula"] == "200/200"
    assert rep["characteristic_exponent"] == "200/200"
    assert rep["shuffle_invariance"] == "5/5"


def test_complex_product_counts_only_bumps_that_ran():
    # at seed 0 with 50 trials one of the 34 monotone bumps is rejected
    rep = acceptance.suite_complex_product(seed=0, trials=50)
    assert rep["passed"], rep
    assert rep["constant_shift"] == "34/34"
    assert rep["monotone"] == rep["lipschitz"] == "33/33"
    assert rep["bumps_skipped"] == 1


def test_criterion_4_index_engine(reports):
    rep = reports("index")
    assert rep["maslov_loops"] == [2, 4, 6, 8, 10]
    assert rep["cz_equals_doubled_ind"] == "50/50"
    assert rep["naturality"] == "50/50"
    assert rep["leray"].startswith("100/100")
    assert rep["qm_defect"]["max"] <= acceptance.C_EMP + 1


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc("injected")
    return fail


@pytest.mark.parametrize("callee", ["leray_verify", "qm_defect"])
def test_index_suite_lets_unexpected_errors_propagate(monkeypatch, callee):
    monkeypatch.setattr(spindex, callee, _raise(RuntimeError))
    with pytest.raises(RuntimeError, match="injected"):
        acceptance.suite_index(seed=0, trials=1)


def test_index_suite_skips_regularity_errors(monkeypatch):
    monkeypatch.setattr(spindex, "qm_defect", _raise(spindex.RegularityError))
    monkeypatch.setattr(spindex, "leray_verify", _raise(spindex.IndexError_))
    rep = acceptance.suite_index(seed=0, trials=1)
    assert rep["qm_defect"]["trials"] == 0
    # each loop counts its skips by exception class; Leray tries 20 times
    assert rep["qm_defect"]["skipped"] == {"RegularityError": 1}
    assert rep["leray"].startswith("0/0")
    assert rep["leray_skipped"] == {"IndexError_": 20}
    assert not rep["passed"]


def test_criterion_5_toric(reports):
    rep = reports("toric")
    assert rep["pspec_cpn2"]["value"] == ["0", "0"]
    assert rep["pspec_s2xs2"]["value"] == ["0", "0"]
    assert rep["pspec_blowup"]["interior"]


def test_toric_suite_lets_unexpected_errors_propagate(monkeypatch):
    monkeypatch.setattr(toric, "special_point", _raise(RuntimeError))
    with pytest.raises(RuntimeError, match="injected"):
        acceptance.suite_toric(seed=0)


def test_toric_suite_reports_toric_errors(monkeypatch):
    monkeypatch.setattr(toric, "special_point", _raise(toric.ToricError))
    rep = acceptance.suite_toric(seed=0)
    assert rep["pspec_cpn2"] == {"error": "injected"}
    assert not rep["passed"]


def test_criterion_6_model_quasi_state(reports):
    rep = reports("qstate")
    assert rep["axioms"]["status"] == "ok"
    assert rep["intersection_property"] == "20/20"
    assert rep["fourier_error"] <= 1e-3


def test_verify_golden_covers_every_suite():
    with open(GOLDEN, encoding="utf-8") as fh:
        assert sorted(json.load(fh)) == sorted(acceptance.SUITES)


@pytest.mark.parametrize("name", list(acceptance.SUITES))
def test_verify_payload_matches_golden(name, reports, monkeypatch):
    # the CLI reports the suite result the criteria above already computed
    rep = reports(name)

    def suite(seed, trials):
        assert (seed, trials) == (0, None)
        return rep
    monkeypatch.setitem(acceptance.SUITES, name, suite)
    monkeypatch.delenv("RIGIDKIT_SEED", raising=False)
    with open(GOLDEN, encoding="utf-8") as fh:
        assert verify_payload(name) == json.load(fh)[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_acceptance.py --write")
    os.environ.pop("RIGIDKIT_SEED", None)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({name: verify_payload(name) for name in acceptance.SUITES}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
