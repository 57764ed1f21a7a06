"""Matrix convexity on the x-ball at a base point and over C_A, and the
sampling core every tester runs on."""

import math
import tracemalloc

import numpy as np
import pytest

import ncconvex.convexity as convexity
from ncconvex import (CallableNcFunction, DomainError, HermTuple, NcError,
                      PolynomialNcFunction, ScalarFn, Signature,
                      certify_degree_two, check_nc_function_axioms,
                      convexity_test_1var, loewner_monotone_test,
                      parse_polynomial, verify_convexity_witness)
from ncconvex import test_convexity_at_A as convexity_at_A
from ncconvex import test_convexity_at_CA as convexity_at_CA
from ncconvex import test_slice_convexity_transfer as slice_transfer
from ncconvex.convexity import CHUNK, _falsify
from ncconvex.presets import get_preset, random_base_tuple
from ncconvex.tolerances import WITNESS_TOL
from ncconvex.tuples import (ca_element, derived_rng, sample_x_ball,
                             tuple_to_json)


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
    base = convexity_at_A(F, A, epsilon=1.0, trials=80, seed=(55, 0))
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


def test_a_tuple_of_the_wrong_arity_raises():
    F = _fn("a1*x1*a1", Signature(1, 1))
    with pytest.raises(ValueError, match="A-tuple arity 0 does not match "
                                         "signature g_a=1"):
        convexity_at_A(F, _empty_a(2), epsilon=1.0, trials=5)


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

    rep = _falsify([((60,), 5, draw)], defects, witness_of, "scripted")
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

    rep = _falsify([((61,), 3, draw)], defects, witness_of, "scripted")
    assert not rep.passed
    assert rep.witness is None
    assert rep.min_eig == pytest.approx(-1e-7, rel=1e-9)
    assert len(rep.trial_min_eigs) == 3


def test_core_same_key_same_draws():
    runs = []
    for key in ((62, 3), (62, 3), (62, 4)):
        draw, defects, draws = _scripted([1.0] * 6)
        rep = _falsify([(key, 6, draw)], defects, None, "scripted")
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
        _falsify([((63,), 3, draw)], defects, None, "scripted")


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


def _nc_box(kind):
    """x1^2 that raises past 0.5 in its corner entry, or all NaN or inf."""
    def fn(A, X):
        M = np.asarray(X[0], dtype=complex)
        if kind != "raises":
            return np.full(M.shape, float(kind), dtype=complex)
        if M[0, 0].real > 0.5:
            raise DomainError(f"refused at {float(M[0, 0].real)!r}")
        return M @ M
    return CallableNcFunction(fn, Signature(0, 1), name=kind)


def _scalar_box(kind):
    """t^2 that raises past 0.5, or all NaN or inf.  Its domain is
    narrower than the tested interval (-1, 1), so convexity_test_1var
    resamples some trials, and with seed 8 the first trial that raises
    does so on spectra it resampled."""
    def f(t):
        if kind != "raises":
            return float(kind)
        if t > 0.5:
            raise DomainError(f"refused at {t!r}")
        return t * t
    return ScalarFn(f, d1=lambda t: 2.0 * t if kind == "raises" else f(t),
                    domain=(-0.95, 0.95), name=kind)


_TESTERS = {
    "at_A": lambda F, f: convexity_at_A(F, _empty_a(2), 1.0, trials=30,
                                        seed=8),
    "at_CA": lambda F, f: convexity_at_CA(F, _empty_a(2), 1.0, trials=15,
                                          seed=8),
    "certify": lambda F, f: certify_degree_two(F, _empty_a(2), 1.0,
                                               samples=20, trials=15, seed=8),
    "slice_transfer": lambda F, f: slice_transfer(
        F, _empty_a(2), HermTuple([np.diag([0.7, -0.2])], kind="x"),
        [1.0, 0.5], trials=30, seed=8),
    "axioms": lambda F, f: check_nc_function_axioms(F, samples=30, seed=8),
    "convexity_1var": lambda F, f: convexity_test_1var(f, (-1.0, 1.0),
                                                       trials=30, seed=8),
    "loewner": lambda F, f: loewner_monotone_test(f, (-1.0, 1.0), trials=30,
                                                  seed=8),
}


@pytest.mark.parametrize("tester", sorted(_TESTERS))
@pytest.mark.parametrize("kind", ["nan", "inf", "raises"])
def test_black_boxes_raise_the_same_error_at_every_chunk(kind, tester,
                                                         monkeypatch):
    # a black box that gives NaN or inf never passes, and one that raises
    # at some sample raises the same error whether that sample's chunk
    # is stacked or replayed one sample at a time
    outcomes = set()
    for chunk in (1, 7, 256):
        monkeypatch.setattr(convexity, "CHUNK", chunk)
        with np.errstate(all="ignore"), pytest.raises(NcError) as exc:
            _TESTERS[tester](_nc_box(kind), _scalar_box(kind))
        outcomes.add(f"{exc.type.__name__}: {exc.value}")
    assert len(outcomes) == 1, outcomes
    want = "DomainError: " if kind == "raises" else "NcError: "
    assert outcomes.pop().startswith(want)


def test_core_witness_from_the_worst_trial_past_a_chunk_boundary():
    eigs = [0.5] * (CHUNK + 1)
    eigs[3], eigs[CHUNK] = -1e-3, -5e-2
    draw, defects, _ = _scripted(eigs)
    captured = []

    def witness_of(k, e):
        captured.append(k)
        return {"trial": k}

    rep = _falsify([((64,), CHUNK + 1, draw)], defects, witness_of,
                   "scripted")
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

    rep = _falsify([((66,), CHUNK + 5, draw)], defects,
                   lambda s, eigs: {"size": s[0], "trial": s[1]},
                   "scripted", group_by=lambda s: s[0])
    assert all(len(sizes) == 1 for sizes in seen)
    assert len(seen) == 6               # three sizes in each of two chunks
    assert rep.trial_min_eigs == [-float(k) for k in range(CHUNK + 5)]
    last = CHUNK + 4
    assert rep.witness == {"size": last % 3 + 1, "trial": last}


def _run(key, min_eigs):
    """A scripted run whose trial k has the defect diag(min_eigs[k], 1)."""
    return key, len(min_eigs), lambda rng, k: (key, k, min_eigs[k])


def _run_defects(samples):
    return np.stack([np.diag([e, 1.0]) for _, _, e in samples]), samples


def test_core_replays_runs_in_order_as_one_run():
    # one minimum over both runs; at a tie the earlier run's trial is
    # the worst, and the witness is built once from it
    captured = []

    def witness_of(s, eigs):
        captured.append(s[:2])
        return {"trial": s[1]}

    rep = _falsify([_run((67, 0), [0.5, -5e-2, 0.1]),
                    _run((67, 1), [-5e-2, -1e-3])],
                   _run_defects, witness_of, "scripted")
    assert not rep.passed and rep.trials == 5
    assert rep.trial_min_eigs == [0.5, -5e-2, 0.1, -5e-2, -1e-3]
    assert captured == [((67, 0), 1)]
    with pytest.raises(NcError, match="^trial 1: the defect"):
        _falsify([_run((68, 0), [1.0, 1.0]), _run((68, 1), [1.0, math.nan])],
                 _run_defects, None, "scripted")
    # a later run without trials is refused before any trial runs
    with pytest.raises(ValueError, match="trials"):
        _falsify([_run((69, 0), [math.nan]), _run((69, 1), [])],
                 _run_defects, None, "scripted")


def test_core_refuses_zero_trials():
    draw, defects, _ = _scripted([])
    with pytest.raises(ValueError, match="trials"):
        _falsify([((65,), 0, draw)], defects, None, "scripted")


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


def _realized_levels(A, multiplicities, seed):
    """The tuples test_convexity_at_CA realizes at its levels."""
    return [ca_element(A, m, "random",
                       seed=derived_rng(seed, li, convexity._LEVEL_SALT)).tuple
            for li, m in enumerate(multiplicities)]


def test_ca_shrinks_once_on_the_worst_level(monkeypatch):
    # several levels fail, but the run builds one witness, after the
    # replay, from the worst trial over all levels, on that trial's
    # arrays
    F, A, ms = get_preset("quartic").make(), _empty_a(2), (1, 2, 3)
    levels = [convexity_at_A(F, T, epsilon=2.0, trials=60, seed=(73, li))
              for li, T in enumerate(_realized_levels(A, ms, 73))]
    assert sum(r.min_eig < -WITNESS_TOL for r in levels) >= 2
    worst = min(range(len(ms)), key=lambda li: levels[li].min_eig)
    shrink, shrinks = convexity._shrink_witness, []

    def counted_shrink(F, T, *args):
        shrinks.append(T)
        return shrink(F, T, *args)

    def no_arithmetic(*args):
        raise AssertionError("the shrink ran HermTuple arithmetic")

    monkeypatch.setattr(convexity, "_shrink_witness", counted_shrink)
    monkeypatch.setattr(HermTuple, "scale", no_arithmetic)
    rep = convexity_at_CA(F, A, epsilon=2.0, multiplicities=ms, trials=60,
                          seed=73)
    assert len(shrinks) == 1 and rep.witness
    realized = tuple_to_json(_realized_levels(A, ms, 73)[worst])
    assert tuple_to_json(shrinks[0]) == realized == rep.witness["A"]
    assert rep.witness["alpha"] == {"kappa": 2, "m": ms[worst]}


def _ca_reference(F, A, epsilon, ms, trials, seed):
    """test_convexity_at_CA's JSON and trial minima, rebuilt from one
    test_convexity_at_A run per realized level."""
    reps = [convexity_at_A(F, T, epsilon, trials=trials, seed=(seed, li))
            for li, T in enumerate(_realized_levels(A, ms, seed))]
    eigs = [e for r in reps for e in r.trial_min_eigs]
    worst = min(range(len(ms)), key=lambda li: reps[li].min_eig)
    alpha = {"kappa": A.n, "m": ms[worst]}
    out = {"test": "convexity_at_CA",
           "pass": all(r.passed for r in reps),
           "min_eig": min(eigs), "trials": trials * len(ms),
           "hermitian_ok": all(r.extra["hermitian_ok"] for r in reps),
           "epsilon": epsilon, "alpha": alpha}
    if reps[worst].witness is not None:
        out["witness"] = dict(reps[worst].witness, alpha=alpha)
    return out, eigs


def _non_hermitian_at_size_2():
    """x1^2, with an off-diagonal 1e-3 i added at size 2 only: the first
    level of a size-2 base is non-Hermitian, the later ones are not."""
    def fn(A, X):
        M = np.asarray(X[0]) @ np.asarray(X[0])
        return M + 1e-3j * np.eye(2, k=1) if len(M) == 2 else M
    return CallableNcFunction(fn, Signature(0, 1), name="skew-at-2")


@pytest.mark.parametrize("make_F, A, epsilon", [
    (lambda: _fn("x1^4", Signature(0, 1)), _empty_a(2), 2.0),
    (lambda: _fn("x1^2", Signature(0, 1)), _empty_a(2), 1.0),
    (lambda: _fn("x1*x2", Signature(0, 2)), _empty_a(1), 1.0),
    (_non_hermitian_at_size_2, _empty_a(2), 1.0),
    (lambda: _fn("a1*x1*a1 + x1*a1*x1 + x1^2", Signature(1, 1)),
     HermTuple([np.diag([-1.5, 0.0])], kind="a"), 0.5),
], ids=["quartic", "square", "non-hermitian", "non-hermitian at m=1 only",
        "mixed-ax below -1"])
def test_ca_matches_the_levelwise_reference(make_F, A, epsilon):
    F, ms = make_F(), (1, 2, 3)
    rep = convexity_at_CA(F, A, epsilon, multiplicities=ms, trials=40,
                          seed=74)
    want, eigs = _ca_reference(F, A, epsilon, ms, 40, 74)
    assert rep.to_json_dict() == want
    assert rep.trial_min_eigs == eigs


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
    lambda F: check_nc_function_axioms(F, samples=0),
    lambda F: loewner_monotone_test(get_preset("square").make_scalar(),
                                    (0.1, 1.0), points_per_trial=1, trials=5),
], ids=["at_A size 0", "at_CA size 0", "no multiplicities", "1var size 0",
        "axioms no samples", "monotone one point"])
def test_zero_work_arguments_raise(run):
    with pytest.raises(ValueError):
        run(_fn("x1^2", Signature(0, 1)))
