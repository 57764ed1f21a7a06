"""The axioms runs of axioms_examples.py against their outputs in
data/axioms_golden.json, byte for byte, and the stacked check against
the sample-by-sample loop it replaced, kept here as its oracle."""

import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncconvex import (CallableNcFunction, HermTuple, PolynomialNcFunction,
                      Signature, check_nc_function_axioms, convexity, evaluate,
                      parse_polynomial)
from ncconvex.errors import DomainError, NcError
from ncconvex.evaluate import AxiomsReport, as_nc_function
from ncconvex.presets import get_preset
from ncconvex.tolerances import AXIOM_TOL
from ncconvex.tuples import (as_rng, block_diag, haar_unitary,
                             random_hermitian, tuple_norm, tuple_to_json)

from axioms_examples import (CLI_EXAMPLES, _library_runs, run_library,
                             trace_evaluator)
from falsify_examples import run_cli

GOLDEN = json.loads((Path(__file__).parent / "data"
                     / "axioms_golden.json").read_text())


def test_cli_runs_are_byte_identical(tmp_path, monkeypatch, dump_spy):
    assert [rec["argv"] for rec in GOLDEN["cli"]] == CLI_EXAMPLES
    monkeypatch.chdir(tmp_path)
    for rec in GOLDEN["cli"]:
        assert run_cli(rec["argv"]) == rec, rec["argv"]
    assert len(dump_spy) >= len(GOLDEN["cli"])


def test_library_results_are_byte_identical():
    runs = _library_runs()
    assert [rec["name"] for rec in GOLDEN["library"]] == [n for n, _ in runs]
    for rec, (name, thunk) in zip(GOLDEN["library"], runs):
        assert run_library(name, thunk) == rec, name


# at CHUNK = 7 every run above spans several chunks
def test_cli_runs_are_byte_identical_at_chunk_7(tmp_path, monkeypatch,
                                                dump_spy):
    monkeypatch.setattr(convexity, "CHUNK", 7)
    test_cli_runs_are_byte_identical(tmp_path, monkeypatch, dump_spy)


def test_library_results_are_byte_identical_at_chunk_7(monkeypatch):
    monkeypatch.setattr(convexity, "CHUNK", 7)
    test_library_results_are_byte_identical()


# -- the sample-by-sample oracle ---------------------------------------------


def _bounded_tuple(g, n, kind, rng):
    T = HermTuple([random_hermitian(n, rng) for _ in range(g)], kind=kind, n=n)
    norm = tuple_norm(T)
    if norm > 0:
        T = T.scale(float(rng.uniform(0.1, 0.9)) / norm)
    return T


def loop_axioms(F, sizes=(1, 2, 3, 4), samples=100, seed=0, tol=AXIOM_TOL):
    """check_nc_function_axioms as a loop over samples: five F calls,
    four HermTuple builds, one QR and one conjugation per sample."""
    F = as_nc_function(F)
    sig = F.signature
    rng = as_rng(seed)
    max_ds = max_u = 0.0
    counterexample = None
    for _ in range(samples):
        n1 = int(rng.choice(sizes))
        n2 = int(rng.choice(sizes))
        A1 = _bounded_tuple(sig.g_a, n1, "a", rng)
        X1 = _bounded_tuple(sig.g_x, n1, "x", rng)
        A2 = _bounded_tuple(sig.g_a, n2, "a", rng)
        X2 = _bounded_tuple(sig.g_x, n2, "x", rng)
        v1 = F(A1, X1)
        v2 = F(A2, X2)
        joint = F(A1.direct_sum(A2), X1.direct_sum(X2))
        dev_ds = float(np.max(np.abs(joint - block_diag(v1, v2))))
        U = haar_unitary(n1, rng)
        dev_u = float(np.max(np.abs(F(A1.conjugate(U), X1.conjugate(U))
                                    - U.conj().T @ v1 @ U)))
        max_ds = max(max_ds, dev_ds)
        max_u = max(max_u, dev_u)
        if counterexample is None and (dev_ds > tol or dev_u > tol):
            counterexample = {
                "axiom": "direct_sum" if dev_ds > tol else "unitary",
                "deviation": max(dev_ds, dev_u),
                "A1": tuple_to_json(A1), "X1": tuple_to_json(X1),
                "A2": tuple_to_json(A2), "X2": tuple_to_json(X2),
                "n1": n1, "n2": n2,
            }
    return AxiomsReport(passed=(max_ds <= tol and max_u <= tol),
                        samples=samples, max_direct_sum_dev=max_ds,
                        max_unitary_dev=max_u, tol=tol,
                        counterexample=counterexample)


def _refuse_size(n):
    def fn(A, X):
        M = np.asarray(X[0], dtype=complex)
        if M.shape[0] == n:
            raise DomainError(f"size {n} refused at trace "
                              f"{float(np.trace(M).real)!r}")
        return M @ M @ M
    return CallableNcFunction(fn, Signature(0, 1))


def _refuse_joint():
    # refuses every point of size 4 or more, which at sizes (2,) is every
    # joint point, and the points whose corner entry is above 0.1, which
    # tells a conjugated point from its v1: the first error depends on
    # the order in which F sees a sample's four points
    def fn(A, X):
        M = np.asarray(X[0], dtype=complex)
        if M.shape[0] >= 4 or M[-1, -1].real > 0.1:
            raise DomainError(f"size {M.shape[0]} refused at corner "
                              f"{float(M[-1, -1].real)!r}")
        return M @ M @ M
    return CallableNcFunction(fn, Signature(0, 1))


EVALUATORS = {
    "mixed-ax": lambda: get_preset("mixed-ax").make(),
    "two x-letters": lambda: PolynomialNcFunction(
        parse_polynomial("x1*x2*x1 + a1*x2 + x2*a1", Signature(1, 2))),
    "a only": lambda: PolynomialNcFunction(
        parse_polynomial("a1^3 - a1", Signature(1, 0))),
    "kraus": lambda: get_preset("kraus-halfmass").make(),
    "trace": trace_evaluator,
    "refuses size 3": lambda: _refuse_size(3),
    "refuses joint points": _refuse_joint,
}


def _outcome(check, F, **kw):
    try:
        return repr(check(F, **kw).to_json_dict())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(EVALUATORS)), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 30),
       st.lists(st.integers(1, 5), min_size=1, max_size=3),
       st.sampled_from([1, 3, 7, 256]), st.sampled_from([1e-8, 1e-16]))
def test_stacked_check_equals_the_loop(name, seed, samples, sizes, chunk,
                                       tol):
    F = EVALUATORS[name]()
    kw = dict(sizes=tuple(sizes), samples=samples, seed=seed, tol=tol)
    with mock.patch.object(convexity, "CHUNK", chunk):
        got = _outcome(check_nc_function_axioms, F, **kw)
    assert got == _outcome(loop_axioms, F, **kw)


# -- evaluator calls and the one-sample replay --------------------------------


class _Counting(PolynomialNcFunction):
    def __init__(self, p):
        super().__init__(p)
        self.stacks, self.calls = [], 0

    def __call__(self, A, X):
        self.calls += 1
        return super().__call__(A, X)

    def at_points(self, A, Xs):
        self.stacks.append(Xs.shape[-1])
        return super().at_points(A, Xs)


def test_a_chunk_evaluates_once_per_matrix_size():
    F = _Counting(parse_polynomial("a1*x1*a1 + x1^3", Signature(1, 1)))
    check_nc_function_axioms(F, samples=20, seed=5)
    # v1, v2 and the conjugated points at sizes 1..4, the joint points at
    # 2..8: one call per size, none point by point
    assert F.calls == 0
    assert sorted(F.stacks) == sorted(set(F.stacks))
    assert len(F.stacks) <= 8


def test_a_failing_chunk_raises_its_first_failing_sample_error():
    # several samples meet size 3; the error must be the first one's.
    # With _refuse_joint the first failing sample refuses its joint and
    # its conjugated point, and F must meet the joint one first, as the
    # loop calls it
    for F, sizes, seed, first in ((_refuse_size(3), (1, 2, 3), 12, "size 3"),
                                  (_refuse_joint(), (2,), 13, "size 4")):
        kw = dict(sizes=sizes, samples=30, seed=seed)
        want = _outcome(loop_axioms, F, **kw)
        assert want.startswith(f"DomainError: {first} refused")
        assert _outcome(check_nc_function_axioms, F, **kw) == want


def test_a_zero_norm_tuple_names_its_sample(monkeypatch):
    draw = evaluate._draw_axioms_sample
    seen = []

    def zero_fifth(sig, sizes, rng):
        n1, n2, tuples, u = draw(sig, sizes, rng)
        seen.append(None)
        if len(seen) == 6:              # sample 5
            tuples[1] = (np.zeros_like(tuples[1][0]), tuples[1][1])
        return n1, n2, tuples, u

    monkeypatch.setattr(evaluate, "_draw_axioms_sample", zero_fifth)
    monkeypatch.setattr(convexity, "CHUNK", 4)
    F = get_preset("mixed-ax").make()
    with pytest.raises(NcError, match=r"^axioms sample 5: the drawn "
                                      r"x-tuple has norm 0$"):
        check_nc_function_axioms(F, samples=10, seed=3)


@pytest.mark.parametrize("sizes", [(), (0, 2), (-1,), ((1, 2),)])
def test_sizes_must_be_positive(sizes):
    with pytest.raises(ValueError, match="sizes must list"):
        check_nc_function_axioms(get_preset("square").make(), sizes=sizes)
