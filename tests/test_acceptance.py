"""Acceptance gate: eleven numbered criteria, one recorded line each.

Each criterion is a separate test so a failure pinpoints the broken
contract; tolerances and trial counts are the contracted ones, not
looser stand-ins.
"""

import json
import zlib
from time import monotonic

import numpy as np

from conftest import ACCEPTANCE_LINES, run_cli

from ncconvex import test_convexity_at_A as convexity_at_A
from ncconvex import test_convexity_at_CA as convexity_at_CA
from ncconvex import test_slice_convexity_transfer as slice_transfer
from ncconvex import (CORPUS, DiscreteMeasure, HermTuple,
                      PolynomialNcFunction, ScalarFn, Signature,
                      VERDICT_CONSISTENT,
                      VERDICT_HIGHER_ORDER, certify_degree_two,
                      check_nc_function_axioms, convexity_test_1var,
                      derived_rng,
                      extract_slice_coefficients, g_transform, get_preset,
                      hermitian_with_spectrum_in, kraus_eval,
                      kraus_scalar_fn, loewner_monotone_test, matrix_apply,
                      parse_polynomial, random_base_tuple, sample_x_ball,
                      scalar_from_polynomial,
                      trace_evaluator, verify_convexity1_witness,
                      verify_convexity_witness)

HALF = DiscreteMeasure.point_mass(0.5)


def _record(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def _empty_a(n):
    return HermTuple([], kind="a", n=n)


def test_criterion_01_kraus_point_mass_identity():
    t0 = monotonic()
    ts = np.linspace(-0.9, 0.9, 100)
    sweep_dev = max(
        abs(kraus_eval(0.0, 0.0, 2.0, HALF, np.array([[t]]))[0, 0]
            - t * t / (1.0 - 0.5 * t))
        for t in ts)
    # closed form as an independent function, pushed through the
    # spectral route
    closed = ScalarFn(lambda t: t * t / (1.0 - 0.5 * t), name="closed")
    rng = derived_rng(101)
    mat_dev = 0.0
    for k in range(50):
        n = 2 + k % 4
        B = hermitian_with_spectrum_in(n, -0.9, 0.9, rng)
        dev = np.max(np.abs(kraus_eval(0.0, 0.0, 2.0, HALF, B)
                            - matrix_apply(closed, B)))
        mat_dev = max(mat_dev, float(dev))
    elapsed = monotonic() - t0
    ok = sweep_dev <= 1e-10 and mat_dev <= 1e-9 and elapsed < 5.0
    _record(1, ok, f"sweep dev {sweep_dev:.2e} (<=1e-10), matrix dev "
                   f"{mat_dev:.2e} (<=1e-9), {elapsed:.2f}s (<5s)")


def test_criterion_02_kraus_implies_convex():
    t0 = monotonic()
    rng = derived_rng(102)
    worst = np.inf
    all_pass = True
    for rep in range(20):
        k = int(rng.integers(1, 6))
        locs = rng.uniform(-1.0, 1.0, k)
        w = rng.uniform(0.05, 1.0, k)
        mu = DiscreteMeasure(tuple(zip(locs, w / w.sum())))
        fn = kraus_scalar_fn(float(rng.normal()), float(rng.normal()),
                             float(rng.uniform(0.0, 3.0)), mu)
        size = 1 + rep % 4
        report = convexity_test_1var(fn, (-0.9, 0.9), size=size, trials=300,
                                     seed=(102, rep))
        worst = min(worst, report.min_eig)
        all_pass = all_pass and report.passed
    elapsed = monotonic() - t0
    ok = all_pass and worst >= -1e-8 and elapsed < 60.0
    _record(2, ok, f"20 representations, min defect eig {worst:.2e} "
                   f"(>=-1e-8), {elapsed:.1f}s (<60s)")


def test_criterion_03_quartic_falsified_both_routes():
    f = scalar_from_polynomial(parse_polynomial("x1^4", Signature(0, 1)),
                               "t^4")
    rep1 = convexity_test_1var(f, (-2.0, 2.0), size=2, trials=1000, seed=103)
    re1 = verify_convexity1_witness(f, rep1.witness) if rep1.witness else 0.0
    F = PolynomialNcFunction(parse_polynomial("x1^4", Signature(0, 1)),
                             name="x1^4")
    rep2 = convexity_at_A(F, _empty_a(2), epsilon=2.0, trials=1000,
                               seed=103)
    re2 = (verify_convexity_witness(F, rep2.witness)
           if rep2.witness else 0.0)
    ok = (not rep1.passed and not rep2.passed
          and rep1.min_eig < -1e-6 and rep2.min_eig < -1e-6
          and re1 < -1e-6 and re2 < -1e-6)
    _record(3, ok, f"convexity1 min {rep1.min_eig:.2e}, at_A min "
                   f"{rep2.min_eig:.2e}, re-verified "
                   f"{re1:.2e}/{re2:.2e} (all <-1e-6)")


def test_criterion_04_square_passes_ca_levels():
    F = PolynomialNcFunction(parse_polynomial("x1^2", Signature(0, 1)),
                             name="x1^2")
    report = convexity_at_CA(F, _empty_a(2), epsilon=1.0,
                                  multiplicities=(1, 2, 3), trials=500,
                                  seed=104)
    ok = report.passed and report.min_eig >= -1e-10
    _record(4, ok, f"m in (1,2,3), 500 trials each, min defect eig "
                   f"{report.min_eig:.2e} (>=-1e-10)")


def test_criterion_05_g_transform_pipeline():
    g_half = g_transform(kraus_scalar_fn(0.0, 0.0, 2.0, HALF))
    rep_pass = loewner_monotone_test(g_half, (-0.9, 0.9),
                                     points_per_trial=5, trials=300,
                                     seed=105)
    g_quartic = g_transform(scalar_from_polynomial(
        parse_polynomial("x1^4", Signature(0, 1)), "t^4"))
    rep_fail = loewner_monotone_test(g_quartic, (-1.0, 1.0),
                                     points_per_trial=5, trials=300,
                                     seed=105)
    ok = (rep_pass.passed and rep_pass.min_eig >= -1e-8
          and not rep_fail.passed and rep_fail.witness is not None)
    _record(5, ok, f"g[halfmass] min {rep_pass.min_eig:.2e} (>=-1e-8); "
                   f"g[t^4] min {rep_fail.min_eig:.2e} with witness")


def test_criterion_06_certify_mixed_ax_consistent():
    F = get_preset("mixed-ax").make()
    A = random_base_tuple(1, 2, derived_rng(106))
    report = certify_degree_two(F, A, epsilon=0.5, samples=50, trials=200,
                                seed=106)
    ok = (report.verdict == VERDICT_CONSISTENT
          and report.max_high_order_coeff <= 1e-9
          and report.skipped == 0)
    _record(6, ok, f"verdict {report.verdict}, max |c_i| i>2 = "
                   f"{report.max_high_order_coeff:.2e} (<=1e-9, exact path)")


def test_criterion_07_certify_halfmass_higher_order():
    F = get_preset("kraus-halfmass").make()
    report = certify_degree_two(F, _empty_a(1), epsilon=0.5, samples=50,
                                trials=200, seed=107)
    # scalar slice at X = [[1]], v = [1]: phi(z) = z^2/(1 - z/2)
    sc = extract_slice_coefficients(F, _empty_a(1),
                                    HermTuple([np.array([[1.0]])], kind="x"),
                                    np.array([1.0]), degree_cap=8,
                                    radius=0.25)
    c3_err = abs(sc[3] - 0.5)
    ok = (report.verdict == VERDICT_HIGHER_ORDER
          and report.convexity.passed
          and c3_err <= 1e-6)
    _record(7, ok, f"verdict {report.verdict}, convexity subtest pass="
                   f"{report.convexity.passed}, |c3 - 1/2| = {c3_err:.2e} "
                   f"(<=1e-6)")


def test_criterion_08_axioms_corpus_and_trace():
    worst = 0.0
    all_pass = True
    for name, sig, expr in CORPUS:
        p = parse_polynomial(expr, sig)
        rep = check_nc_function_axioms(PolynomialNcFunction(p, name=name),
                                       sizes=(1, 2, 3, 4), samples=100,
                                       seed=108, tol=1e-8)
        worst = max(worst, rep.max_direct_sum_dev, rep.max_unitary_dev)
        all_pass = all_pass and rep.passed
    broken = check_nc_function_axioms(trace_evaluator(), sizes=(1, 2, 3, 4),
                                      samples=100, seed=108, tol=1e-8)
    cx = broken.counterexample
    two_block = (cx is not None and cx["axiom"] == "direct_sum"
                 and cx["n1"] >= 1 and cx["n2"] >= 1)
    ok = all_pass and worst < 1e-8 and not broken.passed and two_block
    _record(8, ok, f"corpus max deviation {worst:.2e} (<1e-8); trace "
                   f"evaluator fails with {cx['n1']}(+){cx['n2']} blocks"
                   if cx else "trace evaluator did not fail")


def test_criterion_09_slice_convexity_transfer():
    F = PolynomialNcFunction(parse_polynomial("x1^2", Signature(0, 1)),
                             name="x1^2")
    X = sample_x_ball(Signature(0, 1), 3, 1.0, 1, seed=109)[0]
    v = derived_rng(109).standard_normal(3)
    report = slice_transfer(F, _empty_a(3), X, v, delta=0.2,
                                           t_size=3, trials=200, seed=109)
    ok = report.passed and report.min_eig >= -1e-8
    _record(9, ok, f"delta 0.2, T-size <=3, 200 trials, min defect eig "
                   f"{report.min_eig:.2e} (>=-1e-8)")


def test_criterion_10_extraction_cross_oracle():
    worst = 0.0
    for name, sig, expr in CORPUS:
        F = PolynomialNcFunction(parse_polynomial(expr, sig), name=name)
        for s in range(3):
            rng = derived_rng(110, zlib.crc32(name.encode()) & 0xFFFF, s)
            A = random_base_tuple(sig.g_a, 3, rng)
            X = sample_x_ball(sig, 3, 1.0, 1, rng)[0]
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            ce = extract_slice_coefficients(F, A, X, v, degree_cap=8)
            cd = extract_slice_coefficients(F, A, X, v, degree_cap=8,
                                            force_dft=True)
            assert ce.method == "exact" and cd.method == "dft"
            worst = max(worst, float(np.max(np.abs(ce.coeffs - cd.coeffs))))
    ok = worst <= 1e-9
    _record(10, ok, f"exact vs DFT over corpus, max coefficient dev "
                    f"{worst:.2e} (<=1e-9)")


def test_criterion_11_determinism(tmp_path):
    cmds = [
        ["certify", "--expr", "x1^2", "--signature", "0,1", "--size", "3",
         "--seed", "7"],
        ["convexity", "--preset", "mixed-ax", "--size", "2", "--trials",
         "60", "--seed", "11"],
        ["monotone", "--preset", "kraus-halfmass", "--g-transform",
         "--trials", "60", "--seed", "5"],
        ["axioms", "--expr", "x1^2", "--signature", "0,1", "--samples",
         "30", "--seed", "2"],
    ]
    identical = True
    for cmd in cmds:
        runs = [run_cli(cmd, tmp_path) for _ in range(2)]
        # two crashed runs would agree on an empty stdout
        for r in runs:
            assert r.returncode == 0, (cmd, r.stderr)
            assert r.stdout.strip(), cmd
            json.loads(r.stdout)  # well-formed
        identical = identical and runs[0].stdout == runs[1].stdout
    _record(11, identical,
            f"{len(cmds)} commands repeated with fixed seeds, outputs "
            f"byte-identical: {identical}")
