import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as Fr
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import rigidkit
from rigidkit.cli import main as cli_main
from rigidkit.corpus import random_decorated_complex, random_general_position_pair
from rigidkit.documents import (
    MAX_HULL_COST,
    MAX_PL_COST,
    MAX_RING_COST,
    MAX_RING_RANK,
    DocumentError,
    dumps_document,
    load_document,
    polytope_from_doc,
    polytope_to_doc,
    ring_from_doc,
    ring_to_doc,
    save_document,
)
from rigidkit.novikov import QMODEL
from rigidkit.quantum import builtin_algebra, kunneth, projective_space, quadric_surface
from rigidkit import spindex
from rigidkit.spindex import LagrangianFrame, MatrixPath, rotation_generator
from rigidkit.toric import ball_subpolytope, builtin_moment_data

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "rigidkit", "data")


def data(name):
    return os.path.join(DATA, name)


class TestRoundTrips:
    def test_ring(self, tmp_path):
        alg = quadric_surface()
        path = tmp_path / "q.json"
        save_document(alg, "ring", path)
        loaded = load_document(str(path), "ring")
        assert loaded == alg
        assert dumps_document(loaded, "ring") == dumps_document(alg, "ring")

    def test_complex(self, tmp_path):
        rng = random.Random(1)
        cx = random_decorated_complex(rng, QMODEL, dim=5)
        path = tmp_path / "c.json"
        save_document(cx, "complex", path)
        assert load_document(str(path), "complex") == cx

    def test_path_and_frame(self, tmp_path):
        p = MatrixPath(1, [(rotation_generator(1) * 2.0, 1.0)])
        fpath = tmp_path / "p.json"
        save_document(p, "path", fpath)
        q = load_document(str(fpath), "path")
        assert np.allclose(q.end(), p.end())
        fr = LagrangianFrame.coordinate_plane(2, "q")
        save_document(fr, "frame", tmp_path / "f.json")
        fr2 = load_document(str(tmp_path / "f.json"), "frame")
        assert np.allclose(fr2.columns, fr.columns)

    def test_polytope_and_body(self, tmp_path):
        md = builtin_moment_data("blowup")
        save_document(md, "polytope", tmp_path / "m.json")
        md2 = load_document(str(tmp_path / "m.json"), "polytope")
        assert md2.polytope == md.polytope
        assert md2.kappa == md.kappa
        body = ball_subpolytope(2, Fr(1, 2))
        save_document(body, "body", tmp_path / "b.json")
        assert load_document(str(tmp_path / "b.json"), "body").generators == body.generators


class TestValidationOnLoad:
    def test_missing_file(self):
        with pytest.raises(DocumentError, match="no such file"):
            load_document("/nonexistent.json", "ring")

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(DocumentError, match="line"):
            load_document(str(p), "ring")

    def test_kind_mismatch(self, tmp_path):
        save_document(quadric_surface(), "ring", tmp_path / "r.json")
        with pytest.raises(DocumentError, match="kind"):
            load_document(str(tmp_path / "r.json"), "complex")

    def test_filter_violation_names_vector(self, tmp_path):
        doc = {
            "kind": "complex", "base_field": "Q", "gamma_generator": 1,
            "basis": [{"label": "x1", "parity": 0, "filter": 2},
                      {"label": "x2", "parity": 1, "filter": 0}],
            "differential": [{"from": "x2", "to": "x1", "scalar": "1*s^(-1)"}],
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DocumentError, match="x2"):
            load_document(str(p), "complex")

    def test_ring_axiom_violation(self, tmp_path):
        doc = {
            "kind": "ring", "base_field": "Q", "dimension_2n": 2,
            "gamma_generator": 1,
            "classes": [{"label": "[M]", "degree": 2}, {"label": "pt", "degree": 0}],
            "unity": "[M]", "point": "pt",
            # grading-violating entry: pt*pt -> [M] at q^0
            "table": [{"i": 0, "j": 0, "terms": [{"k": 0, "qpow": 0, "scalar": "1"}]},
                      {"i": 0, "j": 1, "terms": [{"k": 1, "qpow": 0, "scalar": "1"}]},
                      {"i": 1, "j": 1, "terms": [{"k": 0, "qpow": 0, "scalar": "1"}]}],
        }
        p = tmp_path / "r.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DocumentError, match="grading"):
            load_document(str(p), "ring")

    def test_builtin_scheme(self):
        alg = load_document("builtin:quadric", "ring")
        assert alg.rank == 4
        md = load_document("builtin:cpn2", "polytope")
        assert md.kappa == Fr(1, 3)
        with pytest.raises(DocumentError):
            load_document("builtin:quadric", "body")


def convex_polygon(n):
    """n vertices in convex position: points on the parabola y = x^2."""
    return [[k, k * k] for k in range(n)]


def moment_curve(n):
    """n vertices in convex position in dimension 4."""
    return [[k, k ** 2, k ** 3, k ** 4] for k in range(n)]


class TestHullCostLimit:
    def cli(self, tmp_path, doc, *argv):
        path = tmp_path / f"{doc['kind']}.json"
        path.write_text(json.dumps(doc))
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["--json", *[str(path) if a == "{doc}" else a for a in argv]])
        return code, json.loads(buf.getvalue()), time.perf_counter() - start

    @pytest.mark.parametrize("dim, vertices", [(2, convex_polygon(60)), (4, moment_curve(40))])
    def test_oversized_polytope_exits_2_fast(self, tmp_path, dim, vertices):
        doc = {"kind": "polytope", "dimension": dim, "vertices": vertices}
        code, rep, elapsed = self.cli(tmp_path, doc, "toric", "{doc}", "--delzant")
        assert code == 2 and elapsed < 1.0
        message = rep["results"]["error"]
        n = len(vertices)
        assert f"{n} points in dimension {dim}" in message and str(MAX_HULL_COST) in message

    def test_oversized_body_exits_2_fast(self, tmp_path):
        # 59 generators and the origin: the same hull as a 60-vertex polygon
        doc = {"kind": "body", "generators": convex_polygon(60)[1:]}
        code, rep, elapsed = self.cli(tmp_path, doc, "toric", data("cpn2.polytope.json"),
                                      "--displaceable", "{doc}")
        assert code == 2 and elapsed < 1.0
        assert "60 points in dimension 2" in rep["results"]["error"]

    def test_limit_is_exact_for_bodies(self, tmp_path):
        # C(46, 2) * 46 = 47610 loads; C(47, 2) * 47 = 50807 does not
        for count, ok in ((45, True), (46, False)):
            path = tmp_path / f"b{count}.json"
            path.write_text(json.dumps({"kind": "body", "generators": convex_polygon(count)}))
            if ok:
                assert len(load_document(str(path), "body").generators) == count
            else:
                with pytest.raises(DocumentError, match="over the limit"):
                    load_document(str(path), "body")

    def test_shipped_documents_and_builtins_load(self):
        for name in sorted(os.listdir(DATA)):
            kind = name.split(".")[-2]
            if kind in ("polytope", "body"):
                load_document(data(name), kind)
        for name in ("cpn1", "cpn2", "cpn3", "cpn4", "s2xs2", "blowup"):
            doc = polytope_to_doc(load_document(f"builtin:{name}", "polytope"))
            assert polytope_from_doc(doc).polytope == builtin_moment_data(name).polytope


def grid_pl(k):
    """PL function on the k x k grid triangulation of [-1/2, 1/2]^2, two
    triangles a square: (k+1)^2 vertices and 2k^2 simplices."""
    index = lambda i, j: i * (k + 1) + j
    simplices = []
    for i in range(k):
        for j in range(k):
            simplices += [[index(i, j), index(i + 1, j), index(i + 1, j + 1)],
                          [index(i, j), index(i, j + 1), index(i + 1, j + 1)]]
    return {"kind": "pl-function",
            "vertices": [[str(Fr(i, k) - Fr(1, 2)), str(Fr(j, k) - Fr(1, 2))]
                         for i in range(k + 1) for j in range(k + 1)],
            "simplices": simplices, "values": [0] * (k + 1) ** 2}


class TestPLCostLimit:
    cli = TestHullCostLimit.cli

    def test_oversized_pl_function_exits_2_fast(self, tmp_path):
        # 128 simplices * 81 vertices = 10368 barycentric solves
        code, rep, elapsed = self.cli(tmp_path, grid_pl(8), "qstate",
                                      data("cpn2.polytope.json"), "--zeta", "{doc}")
        assert code == 2 and elapsed < 1.0
        message = rep["results"]["error"]
        assert "128 simplices * 81 vertices = 10368" in message and str(MAX_PL_COST) in message

    def test_grids_under_the_limit_and_the_shipped_document_load(self, tmp_path):
        # 6 x 6: 72 simplices * 49 vertices = 3528
        path = tmp_path / "grid6.pl.json"
        path.write_text(json.dumps(grid_pl(6)))
        assert len(load_document(str(path), "pl-function").simplices) == 72
        assert len(load_document(data("vee.pl.json"), "pl-function").simplices) == 6


def ring_power(*names):
    """The Kunneth product of the named built-in rings."""
    return reduce(kunneth, (builtin_algebra(n) for n in names))


class TestRingRankLimit:
    cli = TestHullCostLimit.cli

    def test_oversized_product_exits_2_fast(self, tmp_path):
        doc = ring_to_doc(ring_power("cpn2-q", "cpn2-q", "s2", "s2"))
        code, rep, elapsed = self.cli(tmp_path, doc, "ring", "{doc}", "--check-axioms")
        assert code == 2 and elapsed < 1.0
        message = rep["results"]["error"]
        assert "36 classes" in message and str(MAX_RING_RANK) in message

    def test_rank_is_checked_before_the_table(self, tmp_path):
        # 5000 classes and rows that would fail to parse: the class count alone refuses it
        doc = {"kind": "ring", "base_field": "Q", "dimension_2n": 2, "gamma_generator": 1,
               "classes": [{"label": f"c{i}", "degree": 0} for i in range(5000)],
               "unity": "c0", "point": "c1", "table": [{"i": "?"}] * 100_000}
        code, rep, elapsed = self.cli(tmp_path, doc, "ring", "{doc}", "--semisimple")
        assert code == 2 and elapsed < 1.0
        assert "5000 classes" in rep["results"]["error"]

    def test_limit_and_the_shipped_rings_load(self):
        assert MAX_RING_RANK >= 16
        top = ring_power(*["s2"] * 5)
        assert top.rank == MAX_RING_RANK
        assert ring_from_doc(ring_to_doc(top)) == top
        for name in sorted(os.listdir(DATA)):
            if name.endswith(".ring.json"):
                assert load_document(data(name), "ring").rank <= MAX_RING_RANK
        for name in ("cpn1-f2", "cpn2-f2", "cpn3-f2", "cpn4-f2", "cpn1-q", "cpn2-q",
                     "cpn3-q", "cpn4-q", "s2", "quadric", "t2"):
            alg = load_document(f"builtin:{name}", "ring")
            assert ring_from_doc(ring_to_doc(alg)) == alg


def dense_ring_doc(alg):
    """alg's document with every table entry replaced by a term 1 at each
    class of matching degree parity, at the q-power the grading asks for."""
    doc = ring_to_doc(alg)
    deg, n2, r = alg.basis.degrees, alg.basis.dimension_2n, alg.rank
    doc["table"] = [
        {"i": i, "j": j, "terms": [{"k": k, "qpow": (deg[i] + deg[j] - n2 - deg[k]) // 2,
                                    "scalar": "1"}
                                   for k in range(r) if (deg[i] + deg[j] - deg[k]) % 2 == 0]}
        for i in range(r) for j in range(i, r)]
    return doc


class TestRingCostLimit:
    cli = TestHullCostLimit.cli

    def test_dense_table_exits_2_fast(self, tmp_path):
        # rank 16 is under MAX_RING_RANK, but 136 entries x 16 classes x 256
        # row terms is far over MAX_RING_COST
        doc = dense_ring_doc(ring_power("cpn3-q", "cpn3-q"))
        code, rep, elapsed = self.cli(tmp_path, doc, "ring", "{doc}", "--check-axioms")
        assert code == 2 and elapsed < 1.0
        message = rep["results"]["error"]
        assert "costs 557056" in message and str(MAX_RING_COST) in message

    def test_every_product_of_two_builtins_loads(self):
        # five spheres, the costliest product of built-ins (16 896), loads in
        # TestRingRankLimit; these are the products the benchmark round-trips
        names = ("cpn1-f2", "cpn2-f2", "cpn3-f2", "cpn4-f2", "cpn1-q", "cpn2-q",
                 "cpn3-q", "cpn4-q", "s2", "quadric", "t2")
        algs = [builtin_algebra(n) for n in names]
        for a in algs:
            for b in algs:
                if a.field == b.field and a.rank * b.rank <= 16:
                    prod = kunneth(a, b)
                    assert ring_from_doc(ring_to_doc(prod)) == prod


@pytest.mark.parametrize("n", ["0", "-1", "5", "600"])
def test_ball_dimension_out_of_range_exits_2_fast(n, capsys):
    start = time.perf_counter()
    code = cli_main(["toric", "--ball", n, "1/2"])
    assert code == 2 and time.perf_counter() - start < 1.0
    assert "ball dimension must be 1 to 4" in capsys.readouterr().out


class TestCLI:
    def run(self, *argv):
        import contextlib
        import io
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(list(argv))
        return code, buf.getvalue()

    def test_help(self):
        code, _ = self.run("--help")
        assert code == 0

    def test_unknown_subcommand(self):
        code, _ = self.run("frobnicate")
        assert code == 2

    def test_no_subcommand(self):
        code, _ = self.run()
        assert code == 2

    def test_ring_checks(self):
        code, out = self.run("--json", "ring", "builtin:quadric",
                             "--check-axioms", "--semisimple")
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "ok"
        assert rep["results"]["semisimple"] == "semisimple"

    def test_ring_divide(self):
        code, out = self.run("--json", "ring", "builtin:quadric", "--divide",
                             "B - A", "(1/2)*[M] - (1/2*s^(1))*q^(2)*pt")
        assert code == 0
        assert json.loads(out)["results"]["verified"] is True

    def test_ring_idempotent_expr(self):
        code, out = self.run("--json", "ring", "builtin:quadric",
                             "--idempotent", "(1/2)*[M] + (1/2*s^(1))*q^(2)*pt")
        assert code == 0
        assert json.loads(out)["results"]["idempotent"] is True
        code, out = self.run("--json", "ring", "builtin:quadric",
                             "--idempotent", "A")
        assert code == 0
        assert json.loads(out)["results"]["idempotent"] is False

    def test_complex_class_invariant(self):
        code, out = self.run("--json", "complex", data("a.cplx.json"),
                             "--c", "h1 + (1*s^(1))*h2")
        assert code == 0
        val = json.loads(out)["results"]["spectral_invariant"]
        assert Fr(val) is not None

    def test_missing_file_exit_2(self):
        code, _ = self.run("ring", "/does/not/exist.json", "--check-axioms")
        assert code == 2

    def test_complex_pipeline(self):
        code, out = self.run("--json", "complex", data("a.cplx.json"),
                             "--validate", "--spectral-basis",
                             "--tensor", data("b.cplx.json"),
                             "--verify-product", "--seed", "7")
        assert code == 0
        rep = json.loads(out)
        assert rep["status"] == "ok"
        rows = rep["results"]["verify_product"]
        assert rows and all(r["equal"] for r in rows)

    def test_determinism_excluding_timing(self):
        _, out1 = self.run("--json", "complex", data("a.cplx.json"),
                           "--tensor", data("b.cplx.json"),
                           "--verify-product", "--seed", "3")
        _, out2 = self.run("--json", "complex", data("a.cplx.json"),
                           "--tensor", data("b.cplx.json"),
                           "--verify-product", "--seed", "3")
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("timing_ms"), r2.pop("timing_ms")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_index_maslov(self):
        code, out = self.run("--json", "index", data("rotation_loop.path.json"),
                             "--maslov", "--cz", "--n", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["maslov"] == 2
        assert rep["results"]["cz_matr"] == 2.0
        assert rep["results"]["cz_floer"] == -1.0

    def test_index_rs(self):
        code, out = self.run("--json", "index", data("mixed.path.json"),
                             "--rs", data("qplane.frame.json"))
        assert code == 0
        val = json.loads(out)["results"]["ind"]
        assert val * 2 == round(val * 2)

    @pytest.mark.parametrize("exc, expected", [(RuntimeError, 2),
                                               (spindex.RegularityError, 0)])
    def test_sample_defect_skips_only_index_errors(self, monkeypatch, exc, expected):
        def fail(a, b):
            raise exc("injected")
        monkeypatch.setattr(spindex, "qm_defect", fail)
        code, out = self.run("--json", "index", data("mixed.path.json"),
                             "--sample-defect", "--trials", "3")
        assert code == expected
        results = json.loads(out)["results"]
        if expected:
            assert "sample_defect" not in results
        else:
            assert results["sample_defect"]["trials"] == 0

    def test_toric_pspec(self):
        code, out = self.run("--json", "toric", data("cpn2.polytope.json"),
                             "--pspec", "--delzant")
        assert code == 0
        rep = json.loads(out)
        assert rep["results"]["p_spec"] == ["0", "0"]
        assert rep["results"]["delzant"] == "ok"

    def test_toric_ball_without_file(self):
        code, out = self.run("--json", "toric", "--ball", "2", "2/3")
        assert code == 0
        assert json.loads(out)["results"]["ball"]["contains_origin"] is True

    def test_toric_fiber(self):
        code, out = self.run("--json", "toric", data("cpn2.polytope.json"),
                             "--fiber", "1/5,0")
        assert code == 0
        assert json.loads(out)["results"]["fiber"]["status"] == "stably_displaceable"

    def test_qstate(self):
        code, out = self.run("--json", "qstate", data("cpn2.polytope.json"),
                             "--zeta", data("vee.pl.json"))
        assert code == 0
        assert json.loads(out)["results"]["zeta"] == "0"

    def test_env_seed(self, monkeypatch):
        monkeypatch.setenv("RIGIDKIT_SEED", "9")
        code, out = self.run("--json", "qstate", data("cpn2.polytope.json"),
                             "--axioms", "--trials", "5")
        assert code == 0
        assert json.loads(out)["seed"] == 9

    def test_verify_suite(self):
        code, out = self.run("--json", "verify", "--suite", "ring-cpn")
        assert code == 0
        assert json.loads(out)["results"]["ring-cpn"]["passed"] is True

    def test_verify_unknown_suite(self):
        code, _ = self.run("verify", "--suite", "nope")
        assert code == 2

    @pytest.mark.parametrize("as_json", [False, True])
    def test_jobs_is_rejected(self, capsys, as_json):
        # suites run sequentially: there is no --jobs flag
        args = ["index", data("rotation_loop.path.json"), "--maslov", "--cz", "--n", "1"]
        flags = ["--json"] if as_json else []
        for argv in (flags + ["--jobs", "2"] + args, flags + args + ["--jobs", "2"]):
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "rigidkit: error:" in captured.err

    def test_violation_exit_code(self, tmp_path):
        # a polytope that is not Delzant: --delzant reports a violation
        doc = {"kind": "polytope", "dimension": 2,
               "vertices": [[0, 0], [2, 0], [0, 1]]}
        p = tmp_path / "bad.polytope.json"
        p.write_text(json.dumps(doc))
        code, out = self.run("--json", "toric", str(p), "--delzant")
        assert code == 1
        assert json.loads(out)["status"] == "violation"


def run_module(module):
    """`python -m module --help` in a child process that imports the same
    rigidkit as the tests: pytest's pythonpath setting does not reach it."""
    path = [str(Path(rigidkit.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, "-m", module, "--help"],
                          capture_output=True, text=True, env=env)


def test_console_script_installed():
    proc = run_module("rigidkit.cli")
    assert proc.returncode == 0
    assert "rigidkit" in proc.stdout


def test_module_entry_point():
    proc = run_module("rigidkit")
    assert proc.returncode == 0
    assert "rigidkit" in proc.stdout
