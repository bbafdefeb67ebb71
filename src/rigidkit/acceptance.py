"""Named verification suites; one per acceptance criterion.

Each suite returns {"passed": bool, ...details...} and is reachable both
from pytest (tests/test_acceptance.py) and from `rigidkit verify --suite`.
Tolerances are fixed here; seeds default to 0 so runs are reproducible.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import numpy as np

from . import linalg
from .novikov import F2, QMODEL, NovikovScalar

# Empirical bound on the quasi-morphism defect over the seeded 200-pair
# corpus (Sp(2) and Sp(4), seed 0); future runs must stay within +1 of it.
C_EMP = 1.0


def suite_ring_cpn(seed=0, trials=None):
    """Projective-space rings over GF(2), n = 1..4: axioms and field certificates."""
    from .quantum import frobenius_gram, is_semisimple, projective_space

    details = {}
    passed = True
    for n in range(1, 5):
        alg = projective_space(n, F2)
        bad = alg.check_axioms(deep=True)
        res = is_semisimple(alg)
        gram_rank = linalg.rank(frobenius_gram(alg))
        ok = (not bad) and res.verdict == "semisimple" and gram_rank == alg.rank
        details[f"cpn{n}"] = {
            "axioms": bad or "all hold",
            "semisimple": res.verdict,
            "reason": res.reason,
            "pairing_rank": f"{gram_rank}/{alg.rank}",
        }
        passed = passed and ok
    return {"passed": passed, **details}


def suite_quadric(seed=0, trials=None):
    """Product-of-spheres ring: idempotent pair, division, Kunneth match."""
    from .quantum import (
        divide,
        is_idempotent,
        is_semisimple,
        kunneth,
        qprod,
        quadric_idempotents,
        quadric_surface,
        quadric_w,
        sphere,
        tables_equal,
    )

    alg = quadric_surface()
    details = {}
    checks = []

    bad = alg.check_axioms(deep=True)
    checks.append(("axioms", not bad))
    a_plus, a_minus = quadric_idempotents(alg)
    checks.append(("a_plus idempotent", is_idempotent(alg, a_plus)))
    checks.append(("a_minus idempotent", is_idempotent(alg, a_minus)))
    checks.append(("orthogonal", qprod(alg, a_plus, a_minus).is_zero()))
    checks.append(("sum to unity", (a_plus + a_minus) == alg.unity()))
    checks.append(("sum idempotent", is_idempotent(alg, a_plus + a_minus)))

    # pt * pt = w^{-2} [M]
    w = quadric_w(alg)
    pp = qprod(alg, alg.point(), alg.point())
    w2inv = (w * w)
    lhs = pp.scale(w2inv)
    checks.append(("pt*pt = w^-2 [M]", lhs == alg.unity()))

    a_cls = alg.basis_element(1)
    b_cls = alg.basis_element(2)
    x = divide(alg, b_cls - a_cls, a_minus)
    checks.append(("divide(B-A, a_minus) solvable", x is not None))
    if x is not None:
        checks.append(("division verified", qprod(alg, b_cls - a_cls, x) == a_minus))

    res = is_semisimple(alg)
    checks.append(("semisimple", res.verdict == "semisimple"))

    prod = kunneth(sphere(), sphere())
    checks.append(("kunneth table equals quadric",
                   tables_equal(prod, alg, {0: 0, 1: 1, 2: 2, 3: 3})))
    checks.append(("kunneth gamma", prod.gamma == alg.gamma))

    details["checks"] = {name: bool(ok) for name, ok in checks}
    details["semisimple_reason"] = res.reason
    return {"passed": all(ok for _, ok in checks), **details}


def suite_complex_product(seed=0, trials=None):
    """Random generic pairs: exact product formula, perturbation laws,
    characteristic exponent, shuffle invariance."""
    from .complexes import (
        ComplexError,
        HomologyClass,
        canonical_representative,
        class_of_cycle,
        filter_value,
        perturb_filter,
        spectral_basis,
        spectral_invariant,
        spectral_invariant_of_cycle,
        verify_product_formula,
    )
    from .corpus import (
        random_decorated_complex,
        random_general_position_pair,
        random_homology_class,
    )

    trials = trials or 200
    rng = random.Random(seed)
    product_ok = 0
    product_ran = 0
    failures = []
    while product_ran < trials:
        v1, v2 = random_general_position_pair(rng, QMODEL)
        a1, sb1 = random_homology_class(rng, v1)
        a2, sb2 = random_homology_class(rng, v2)
        if a1 is None or a2 is None:
            continue
        rep = verify_product_formula(v1, v2, a1, a2, sb1, sb2)
        product_ran += 1
        if rep["equal"]:
            product_ok += 1
        elif len(failures) < 3:
            failures.append({"lhs": str(rep["lhs"]), "rhs": str(rep["rhs"])})

    shift_ok = monotone_ok = lipschitz_ok = 0
    shift_ran = bump_ran = bump_skipped = 0
    for _ in range(40):
        v = random_decorated_complex(rng, QMODEL, max_dim=6)
        sb = spectral_basis(v)
        a, _ = random_homology_class(rng, v, sb)
        if a is None:
            continue
        shift_ran += 1
        c0 = spectral_invariant(v, sb, a)
        cyc = canonical_representative(v, sb, a)
        theta = Fraction(rng.randrange(1, 12), rng.randrange(1, 5))
        v_shift = perturb_filter(v, theta)
        if spectral_invariant_of_cycle(v_shift, cyc) == c0 + theta:
            shift_ok += 1
        # monotone bump of one basis vector, and a Lipschitz perturbation
        delta = {i: Fraction(rng.randrange(0, 3), 10) for i in range(v.dim)}
        try:
            v_up = perturb_filter(v, delta)
        except ComplexError:
            # the bump breaks the strict decrease of the filter under d
            bump_skipped += 1
            continue
        bump_ran += 1
        c_up = spectral_invariant_of_cycle(v_up, cyc)
        if c_up >= c0:
            monotone_ok += 1
        norm = max(delta.values())
        if abs(c_up - c0) <= norm:
            lipschitz_ok += 1

    exponent_ok = exponent_ran = 0
    while exponent_ran < trials:
        v = random_decorated_complex(rng, QMODEL, max_dim=6)
        sb = spectral_basis(v)
        if sb.p < 2:
            continue
        a, _ = random_homology_class(rng, v, sb)
        b, _ = random_homology_class(rng, v, sb)
        if a is None or b is None:
            continue
        ab = HomologyClass(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
        exponent_ran += 1
        ca, cb = spectral_invariant(v, sb, a), spectral_invariant(v, sb, b)
        if spectral_invariant(v, sb, ab) <= max(ca, cb):
            exponent_ok += 1

    shuffle_ok = 0
    for _ in range(5):
        v = random_decorated_complex(rng, QMODEL, max_dim=6)
        sb = spectral_basis(v)
        a, _ = random_homology_class(rng, v, sb)
        if a is None:
            shuffle_ok += 1
            continue
        cyc = canonical_representative(v, sb, a)
        vals = set()
        for _ in range(5):
            order = list(range(v.dim))
            rng.shuffle(order)
            vals.add(spectral_invariant_of_cycle(v, cyc, order))
        if len(vals) == 1:
            shuffle_ok += 1

    passed = (product_ok == product_ran == trials
              and shift_ok == shift_ran
              and monotone_ok == lipschitz_ok == bump_ran
              and exponent_ok == exponent_ran == trials
              and shuffle_ok == 5)
    return {
        "passed": passed,
        "product_formula": f"{product_ok}/{product_ran}",
        "constant_shift": f"{shift_ok}/{shift_ran}",
        "monotone": f"{monotone_ok}/{bump_ran}",
        "lipschitz": f"{lipschitz_ok}/{bump_ran}",
        "bumps_skipped": bump_skipped,
        "characteristic_exponent": f"{exponent_ok}/{exponent_ran}",
        "shuffle_invariance": f"{shuffle_ok}/5",
        "failures": failures,
    }


def suite_index(seed=0, trials=None):
    """Index engine: loop values, doubling identity, composition formula,
    naturality, quasi-morphism defect regression."""
    from .corpus import random_matrix_path, random_symplectic
    from .spindex import (
        IndexError_,
        LagrangianFrame,
        MatrixPath,
        ProductPath,
        cz_matr,
        ind,
        ind_doubled,
        leray_verify,
        maslov_loop,
        qm_defect,
        rotation_generator,
    )

    rng = np.random.default_rng(seed)
    details = {}
    passed = True

    loops = [maslov_loop(MatrixPath(1, [(rotation_generator(1) * 2 * np.pi * l, 1.0)]))
             for l in range(1, 6)]
    details["maslov_loops"] = loops
    passed &= loops == [2 * l for l in range(1, 6)]

    n_cz = trials or 50
    cz_ok = 0
    for _ in range(n_cz):
        p = random_matrix_path(rng, 1)
        if cz_matr(p) == ind_doubled(p):
            cz_ok += 1
    details["cz_equals_doubled_ind"] = f"{cz_ok}/{n_cz}"
    passed &= cz_ok == n_cz

    n_nat = min(50, trials or 50)
    nat_ok = 0
    v_frame = LagrangianFrame.coordinate_plane(1, "q")
    for _ in range(n_nat):
        p = random_matrix_path(rng, 1)
        b = random_symplectic(rng, 1)
        bv = LagrangianFrame(b @ v_frame.columns)
        if ind(p.conjugate(b), bv) == ind(p, v_frame):
            nat_ok += 1
    details["naturality"] = f"{nat_ok}/{n_nat}"
    passed &= nat_ok == n_nat

    leray_target = trials or 100
    leray_ok = leray_ran = 0
    leray_skipped = Counter()
    worst = 0.0
    k_cycle = [1, 2]
    ki = 0
    attempts = 0
    while leray_ran < leray_target and attempts < 20 * leray_target:
        attempts += 1
        k = k_cycle[ki % 2]
        ki += 1
        a = random_matrix_path(rng, k)
        b = random_matrix_path(rng, k)
        try:
            rep = leray_verify(a, b)
        except IndexError_ as e:
            leray_skipped[type(e).__name__] += 1
            continue
        leray_ran += 1
        worst = max(worst, rep["residual"])
        if rep["residual"] < 1e-6:
            leray_ok += 1
    details["leray"] = f"{leray_ok}/{leray_ran}, worst residual {worst:.2e}"
    details["leray_skipped"] = dict(leray_skipped)
    passed &= leray_ok == leray_ran == leray_target

    n_qm = trials or 200
    max_defect = 0.0
    qm_ran = 0
    qm_skipped = Counter()
    for i in range(n_qm):
        k = 1 if i % 2 == 0 else 2
        a = random_matrix_path(rng, k)
        b = random_matrix_path(rng, k)
        try:
            d = qm_defect(a, b)
        except IndexError_ as e:
            qm_skipped[type(e).__name__] += 1
            continue
        qm_ran += 1
        max_defect = max(max_defect, d)
    details["qm_defect"] = {"trials": qm_ran, "max": max_defect,
                            "recorded_bound": C_EMP, "skipped": dict(qm_skipped)}
    passed &= np.isfinite(max_defect) and max_defect <= C_EMP + 1 and qm_ran >= 0.9 * n_qm
    return {"passed": bool(passed), **details}


def suite_toric(seed=0, trials=None):
    """Displaceability thresholds and special-point checks on the built-ins."""
    from .toric import (
        ToricError,
        ball_subpolytope,
        builtin_moment_data,
        special_point,
        stable_displaceability_certificate,
    )

    details = {}
    passed = True
    for n in range(1, 5):
        md = builtin_moment_data(f"cpn{n}")
        thr = Fraction(n, n + 1)
        rows = {}
        for r, expect in [(thr - Fraction(1, 60), True), (thr, False),
                          (min(thr + Fraction(1, 60), Fraction(1)), False),
                          (Fraction(1, 3), True)]:
            if r > 1:
                continue
            body = ball_subpolytope(n, r)
            cert = stable_displaceability_certificate(md, body)
            ok = (cert is not None) == expect
            rows[str(r)] = {"certificate": cert is not None, "expected": expect}
            passed &= ok
        details[f"ball_cpn{n}"] = rows

    expectations = {
        "cpn2": (Fraction(0), Fraction(0)),
        "s2xs2": (Fraction(0), Fraction(0)),
        "blowup": (Fraction(-1, 12), Fraction(-1, 12)),
    }
    for name, expect in expectations.items():
        md = builtin_moment_data(name)
        try:
            spec = special_point(md)
            interior = md.polytope.strictly_contains(spec)
            ok = spec == expect and interior
            details[f"pspec_{name}"] = {"value": [str(x) for x in spec],
                                        "interior": interior}
        except ToricError as e:
            ok = False
            details[f"pspec_{name}"] = {"error": str(e)}
        passed &= ok
    return {"passed": bool(passed), **details}


def suite_qstate(seed=0, trials=None):
    """Axiom suite, intersection property, Fourier demo accuracy."""
    from .qstate import (
        ModelState,
        axiom_suite,
        fourier_reduction_demo,
        gaussian_sampler,
        model_heavy,
    )
    from .toric import ConvexBody, builtin_moment_data

    rng = random.Random(seed)
    state = ModelState(builtin_moment_data("cpn2"))
    details = {}
    rep = axiom_suite(state, trials=trials or 50, seed=seed)
    details["axioms"] = rep
    passed = rep["status"] == "ok"

    inter_ok = 0
    n_fam = 20
    for _ in range(n_fam):
        fams = []
        base = Fraction(rng.randrange(-25, 10), 100)
        step = Fraction(rng.randrange(8, 14), 100)
        for t in range(3):
            x0 = base + t * step
            eps = step / 4
            fams.append(ConvexBody([(x0, Fraction(0)), (x0 + eps, Fraction(0)),
                                    (x0, eps)]))
        hits = sum(1 for b in fams if model_heavy(state, b)["heavy"])
        if hits <= 1:
            inter_ok += 1
    details["intersection_property"] = f"{inter_ok}/{n_fam}"
    passed &= inter_ok == n_fam

    demo = fourier_reduction_demo(state, gaussian_sampler(state.p_spec),
                                  radius=10.0, eps=0.05, refinements=1)
    details["fourier_error"] = demo["error"]
    passed &= demo["error"] <= 1e-3
    return {"passed": bool(passed), **details}


SUITES = {
    "ring-cpn": suite_ring_cpn,
    "quadric": suite_quadric,
    "complex-product": suite_complex_product,
    "index": suite_index,
    "toric": suite_toric,
    "qstate": suite_qstate,
}
