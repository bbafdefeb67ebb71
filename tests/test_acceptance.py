"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line.  Budgets (wall-clock ceilings) are asserted too."""

import time

import pytest

from rigidkit import acceptance, spindex, toric


def _run(name, budget, seed=0, **kw):
    t0 = time.perf_counter()
    rep = acceptance.SUITES[name](seed=seed, **kw)
    elapsed = time.perf_counter() - t0
    status = "PASS" if rep["passed"] else "FAIL"
    print(f"[{status}] {name} ({elapsed:.1f}s)")
    assert rep["passed"], rep
    assert elapsed < budget, f"{name} exceeded its {budget}s budget: {elapsed:.1f}s"
    return rep


def test_criterion_1_projective_rings():
    rep = _run("ring-cpn", budget=5)
    for n in range(1, 5):
        assert rep[f"cpn{n}"]["semisimple"] == "semisimple"


def test_criterion_2_quadric():
    rep = _run("quadric", budget=5)
    assert all(rep["checks"].values())


def test_criterion_3_decorated_complexes():
    rep = _run("complex-product", budget=60)
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


def test_criterion_4_index_engine():
    rep = _run("index", budget=120)
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


def test_criterion_5_toric():
    rep = _run("toric", budget=5)
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


def test_criterion_6_model_quasi_state():
    rep = _run("qstate", budget=30)
    assert rep["axioms"]["status"] == "ok"
    assert rep["intersection_property"] == "20/20"
    assert rep["fourier_error"] <= 1e-3
