"""Matrix convexity on the x-ball at a base point and over C_A, and the
sampling core every tester runs on."""

import math
import tracemalloc

import numpy as np
import pytest

import ncconvex.convexity as convexity
from ncconvex import (CallableNcFunction, DomainError, HermTuple, NcError,
                      PolynomialNcFunction, ScalarFn, Signature,
                      convexity_test_1var, derived_rng, get_preset,
                      loewner_monotone_test, parse_polynomial,
                      random_base_tuple, sample_x_ball,
                      verify_convexity_witness)
from ncconvex import test_convexity_at_A as convexity_at_A
from ncconvex import test_convexity_at_CA as convexity_at_CA
from ncconvex import test_slice_convexity_transfer as slice_transfer
from ncconvex.convexity import CHUNK, _falsify
from ncconvex.tolerances import WITNESS_TOL


def _fn(expr, sig):
    return PolynomialNcFunction(parse_polynomial(expr, sig), name=expr)


def _empty_a(n):
    return HermTuple([], kind="a", n=n)


def test_square_passes_at_sizes():
    F = _fn("x1^2", Signature(0, 1))
    for n in (1, 2, 4):
        rep = convexity_at_A(F, _empty_a(n), epsilon=1.0, trials=100,
                                  seed=51)
        assert rep.passed, f"size {n}: {rep.min_eig}"
        assert rep.min_eig >= -1e-12


def test_affine_defect_is_exactly_zero():
    F = _fn("2 + a1 + x1", Signature(1, 1))
    A = random_base_tuple(1, 2, derived_rng(52))
    rep = convexity_at_A(F, A, epsilon=1.0, trials=60, seed=52)
    assert rep.passed
    assert abs(rep.min_eig) < 1e-12


def test_quartic_fails_with_reverifiable_witness():
    F = _fn("x1^4", Signature(0, 1))
    rep = convexity_at_A(F, _empty_a(2), epsilon=2.0, trials=400,
                              seed=53)
    assert not rep.passed
    w = rep.witness
    assert w is not None and w["defect_min_eig"] < -1e-6
    again = verify_convexity_witness(F, w)
    assert again == pytest.approx(w["defect_min_eig"], rel=1e-9)


def test_witness_shrink_keeps_violation_small():
    # the shrunken witness sits just past the -1e-6 hysteresis band,
    # not at the raw sampled magnitude
    F = _fn("x1^4", Signature(0, 1))
    rep = convexity_at_A(F, _empty_a(2), epsilon=2.0, trials=400,
                              seed=53)
    assert -1e-3 < rep.witness["defect_min_eig"] < -1e-6


def test_mixed_ax_convex_when_base_above_minus_one():
    # defect is t(1-t) (X-Y)(a+1)(X-Y), PSD exactly when a >= -1
    F = _fn("a1*x1*a1 + x1*a1*x1 + x1^2", Signature(1, 1))
    A = HermTuple([np.diag([0.5, -0.5])], kind="a")
    rep = convexity_at_A(F, A, epsilon=0.5, trials=100, seed=54)
    assert rep.passed


def test_mixed_ax_fails_below_minus_one():
    F = _fn("a1*x1*a1 + x1*a1*x1 + x1^2", Signature(1, 1))
    A = HermTuple([np.diag([-1.5, 0.0])], kind="a")
    rep = convexity_at_A(F, A, epsilon=0.5, trials=200, seed=54)
    assert not rep.passed
    assert verify_convexity_witness(F, rep.witness) < -1e-6


def test_ca_identity_multiplicity_one_matches_base():
    F = _fn("x1^2", Signature(0, 1))
    A = _empty_a(2)
    base = convexity_at_A(F, A, epsilon=1.0, trials=80, seed=(55, 0),
                               _test_name="convexity_at_CA")
    # m=1 with any unitary is a 2x2 conjugation of the same ball
    merged = convexity_at_CA(F, A, epsilon=1.0, multiplicities=(1,),
                                  trials=80, seed=55)
    assert merged.passed == base.passed
    assert merged.trials == 80
    assert merged.extra["alpha"] == {"kappa": 2, "m": 1}


def test_ca_levels_accumulate_trials():
    F = _fn("x1^2", Signature(0, 1))
    rep = convexity_at_CA(F, _empty_a(2), epsilon=1.0,
                               multiplicities=(1, 2, 3), trials=50, seed=56)
    assert rep.trials == 150
    assert rep.passed


def test_hermitian_check_flags_nonhermitian_output():
    # x1*x2 is not Hermitian; the tester reports hermitian_ok = False
    F = _fn("x1*x2", Signature(0, 2))
    rep = convexity_at_A(F, _empty_a(2), epsilon=1.0, trials=30,
                              seed=57)
    assert not rep.extra["hermitian_ok"]
    assert not rep.passed


def test_epsilon_must_be_positive():
    F = _fn("x1^2", Signature(0, 1))
    with pytest.raises(ValueError):
        convexity_at_A(F, _empty_a(2), epsilon=0.0, trials=10, seed=0)


def test_report_determinism():
    F = _fn("x1^4", Signature(0, 1))
    r1 = convexity_at_A(F, _empty_a(2), epsilon=2.0, trials=120, seed=58)
    r2 = convexity_at_A(F, _empty_a(2), epsilon=2.0, trials=120, seed=58)
    assert r1.min_eig == r2.min_eig
    assert r1.to_json_dict() == r2.to_json_dict()


# -- the sampling core ---------------------------------------------------------


def _scripted(min_eigs):
    """A tester whose defect k is diag(min_eigs[k], 1); its draw records
    the first number of each trial's generator."""
    draws = []

    def draw(rng, k):
        draws.append(float(rng.random()))
        return k

    def defects(ks):
        return np.stack([np.diag([min_eigs[k], 1.0]) for k in ks]), ks

    return draw, defects, draws


def test_core_witness_comes_from_the_worst_trial():
    draw, defects, _ = _scripted([0.5, -1e-3, -5e-2, -1e-7, -1e-2])
    captured = []

    def witness_of(k, eigs):
        captured.append(k)
        return {"trial": k, "eig": float(eigs[0])}

    rep = _falsify((60,), 5, draw, defects, witness_of, "scripted")
    assert not rep.passed
    assert rep.min_eig == pytest.approx(-5e-2, rel=1e-12)
    assert rep.witness["trial"] == 2
    # built once, after the run, from the worst trial
    assert captured == [2]
    assert len(rep.trial_min_eigs) == 5
    assert rep.to_json_dict()["test"] == "scripted"


def test_core_minimum_inside_the_hysteresis_band_fails_without_witness():
    draw, defects, _ = _scripted([0.0, -1e-7, 2.0])

    def witness_of(k, eigs):
        raise AssertionError("no witness inside (-1e-6, -1e-8)")

    rep = _falsify((61,), 3, draw, defects, witness_of, "scripted")
    assert not rep.passed
    assert rep.witness is None
    assert rep.min_eig == pytest.approx(-1e-7, rel=1e-9)
    assert len(rep.trial_min_eigs) == 3


def test_core_same_key_same_draws():
    runs = []
    for key in ((62, 3), (62, 3), (62, 4)):
        draw, defects, draws = _scripted([1.0] * 6)
        rep = _falsify(key, 6, draw, defects, None, "scripted")
        assert rep.passed and rep.witness is None
        assert len(rep.trial_min_eigs) == 6
        runs.append(draws)
    assert runs[0] == runs[1]
    assert runs[0] != runs[2]
    assert runs[0] == [float(derived_rng(62, 3, k).random())
                       for k in range(6)]


def test_core_refuses_a_non_finite_defect():
    draw, defects, _ = _scripted([1.0, math.nan, 1.0])

    with pytest.raises(NcError, match="trial 1"):
        _falsify((63,), 3, draw, defects, None, "scripted")


def _nan_nc(sig):
    def fn(A, X):
        n = np.asarray(X[0]).shape[0]
        return np.full((n, n), np.nan, dtype=complex)
    return CallableNcFunction(fn, sig, name="all-nan")


_NAN_SCALAR = ScalarFn(lambda t: math.nan, d1=lambda t: math.nan,
                       name="all-nan")


@pytest.mark.parametrize("run", [
    lambda: convexity_at_A(_nan_nc(Signature(0, 1)), _empty_a(2),
                           epsilon=1.0, trials=5, seed=64),
    lambda: convexity_at_CA(_nan_nc(Signature(0, 1)), _empty_a(2),
                            epsilon=1.0, trials=5, seed=64),
    lambda: convexity_test_1var(_NAN_SCALAR, (-1.0, 1.0), trials=5,
                                seed=64),
    lambda: loewner_monotone_test(_NAN_SCALAR, (-1.0, 1.0), trials=5,
                                  seed=64),
    lambda: slice_transfer(_nan_nc(Signature(0, 1)), _empty_a(2),
                           HermTuple([np.eye(2)], kind="x"), [1.0, 0.0],
                           trials=5, seed=64),
], ids=["at_A", "at_CA", "convexity_1var", "loewner", "slice_transfer"])
def test_all_nan_evaluator_raises_instead_of_passing(run):
    # NaN defects used to pass (min_eig = inf) or raise LinAlgError
    with pytest.raises(NcError, match="trial 0: the defect matrix is not "
                                      "finite"):
        run()


def test_core_witness_from_the_worst_trial_past_a_chunk_boundary():
    eigs = [0.5] * (CHUNK + 1)
    eigs[3], eigs[CHUNK] = -1e-3, -5e-2
    draw, defects, _ = _scripted(eigs)
    captured = []

    def witness_of(k, e):
        captured.append(k)
        return {"trial": k}

    rep = _falsify((64,), CHUNK + 1, draw, defects, witness_of, "scripted")
    assert rep.witness == {"trial": CHUNK}
    assert captured == [CHUNK]
    assert rep.min_eig == -5e-2
    assert len(rep.trial_min_eigs) == CHUNK + 1


def test_core_groups_defects_by_size_and_replays_in_trial_order():
    # trial k has a (k % 3 + 1)-square defect with min eigenvalue -k
    seen = []

    def draw(rng, k):
        return k % 3 + 1, k

    def defects(samples):
        sizes = {d for d, _ in samples}
        seen.append(sizes)
        return (np.stack([np.diag([-float(k)] + [1.0] * (d - 1))
                          for d, k in samples]), samples)

    rep = _falsify((66,), CHUNK + 5, draw, defects,
                   lambda s, eigs: {"size": s[0], "trial": s[1]},
                   "scripted", group_by=lambda s: s[0])
    assert all(len(sizes) == 1 for sizes in seen)
    assert len(seen) == 6               # three sizes in each of two chunks
    assert rep.trial_min_eigs == [-float(k) for k in range(CHUNK + 5)]
    last = CHUNK + 4
    assert rep.witness == {"size": last % 3 + 1, "trial": last}


def test_core_refuses_zero_trials():
    draw, defects, _ = _scripted([])
    with pytest.raises(ValueError, match="trials"):
        _falsify((65,), 0, draw, defects, None, "scripted")


def _trial_x(seed, k, n, epsilon):
    """The X that test_convexity_at_A draws for trial k."""
    rng = derived_rng(seed, k)
    if k % 2:
        rng.uniform(0.0, 1.0)
    return sample_x_ball(Signature(0, 1), n, epsilon, 2, rng)[0]


def _square_except_at(X_bad, value=None):
    """x1^2, except at X_bad: there it raises, or returns `value` filled."""
    def fn(A, X):
        M = np.asarray(X[0])
        if np.array_equal(M, X_bad[0]):
            if value is None:
                raise NcError("refused")
            return np.full(M.shape, value, dtype=complex)
        return M @ M
    return CallableNcFunction(fn, Signature(0, 1), name="square-except")


# at chunks of 64, the second k of each test lies in the second chunk
@pytest.mark.parametrize("k", [3, 69])
def test_evaluation_failing_at_trial_k_names_trial_k(k, monkeypatch):
    monkeypatch.setattr(convexity, "CHUNK", 64)
    F = _square_except_at(_trial_x(70, k, 2, 1.0))
    with pytest.raises(DomainError, match=rf"^evaluation failed on trial "
                                          rf"{k} \(t=.*, size 2, .*\): refused$"):
        convexity_at_A(F, _empty_a(2), epsilon=1.0, trials=128, seed=70)


@pytest.mark.parametrize("k", [4, 70])
def test_non_finite_defect_at_trial_k_names_trial_k(k, monkeypatch):
    monkeypatch.setattr(convexity, "CHUNK", 64)
    F = _square_except_at(_trial_x(71, k, 2, 1.0), math.nan)
    with pytest.raises(NcError, match=rf"^trial {k}: the defect matrix is "
                                      "not finite$"):
        convexity_at_A(F, _empty_a(2), epsilon=1.0, trials=128, seed=71)


def test_outcome_does_not_depend_on_the_chunk(monkeypatch):
    quartic = get_preset("quartic")

    def run():
        reps = [convexity_at_CA(quartic.make(), _empty_a(2), epsilon=2.0,
                                multiplicities=(1, 2), trials=70, seed=72),
                convexity_test_1var(quartic.make_scalar(), (-1.0, 1.0),
                                    size=3, trials=70, seed=72),
                slice_transfer(_fn("x1^2", Signature(0, 1)), _empty_a(2),
                               HermTuple([np.diag([0.3, -0.2])], kind="x"),
                               [1.0, 0.5], trials=70, seed=72)]
        return [(r.to_json_dict(), r.trial_min_eigs) for r in reps]

    reference = run()
    assert reference[0][0]["witness"] and reference[1][0]["witness"]
    monkeypatch.setattr(convexity, "CHUNK", 5)
    assert run() == reference


def test_ca_shrinks_once_per_failing_level(monkeypatch):
    # each level builds its witness once, after its run, from its worst
    # trial, and the shrink works on that trial's arrays
    shrink, at_A = convexity._shrink_witness, convexity.test_convexity_at_A
    shrinks, levels = [], []

    def counted_shrink(*args):
        shrinks.append(len(levels))     # the index of the running level
        return shrink(*args)

    def recorded_at_A(*args, **kwargs):
        levels.append(at_A(*args, **kwargs))
        return levels[-1]

    def no_arithmetic(*args):
        raise AssertionError("the shrink ran HermTuple arithmetic")

    monkeypatch.setattr(convexity, "_shrink_witness", counted_shrink)
    monkeypatch.setattr(convexity, "test_convexity_at_A", recorded_at_A)
    for name in ("scale", "__add__", "__sub__"):
        monkeypatch.setattr(HermTuple, name, no_arithmetic)
    rep = convexity_at_CA(get_preset("quartic").make(), _empty_a(2),
                          epsilon=2.0, multiplicities=(1, 2, 3), trials=60,
                          seed=73)
    failing = [i for i, r in enumerate(levels) if r.min_eig < -WITNESS_TOL]
    assert len(levels) == 3 and failing and rep.witness
    assert shrinks == failing


def test_stacks_are_bounded_by_the_chunk(monkeypatch):
    # the bound below is calibrated at chunks of 64
    chunk = 64
    monkeypatch.setattr(convexity, "CHUNK", chunk)
    F = get_preset("kraus-halfmass").make()
    A = _empty_a(3)

    def peak(trials):
        tracemalloc.start()
        try:
            convexity_at_A(F, A, epsilon=0.5, trials=trials, seed=73)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(8)
    # trial_min_eigs grows by one float per trial (about 15 kB here);
    # a chunk's stacks are about 200 kB, so stacks kept past their chunk
    # would add over 1 MB at 8 chunks
    assert peak(8 * chunk) - peak(chunk) < 96 * 1024


@pytest.mark.parametrize("run", [
    lambda F: convexity_at_A(F, _empty_a(0), epsilon=1.0, trials=5),
    lambda F: convexity_at_CA(F, _empty_a(0), epsilon=1.0, trials=5),
    lambda F: convexity_at_CA(F, _empty_a(2), epsilon=1.0, trials=5,
                              multiplicities=()),
    lambda F: convexity_test_1var(get_preset("square").make_scalar(),
                                  (-1.0, 1.0), size=0, trials=5),
], ids=["at_A size 0", "at_CA size 0", "no multiplicities", "1var size 0"])
def test_zero_work_arguments_raise(run):
    with pytest.raises(ValueError):
        run(_fn("x1^2", Signature(0, 1)))
