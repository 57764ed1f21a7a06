"""Command-line front end.

Every subcommand prints one JSON document (schema "ncconvex/1") to
stdout and exits 0 on pass/consistent, 1 on a falsified property (a
self-contained witness file is written so the run can be re-checked
independently), 2 on usage or domain errors.  Identical command lines
with identical seeds produce byte-identical JSON; no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain
from typing import Optional

import numpy as np

from .algebra import NcPowerSeries
from .convexity import test_convexity_at_CA, verify_convexity_witness
from .errors import NcError, ShapeError
from .evaluate import (NcFunction, PolynomialNcFunction, SeriesNcFunction,
                       check_nc_function_axioms)
from .onevar import (DiscreteMeasure, ScalarFn, convexity_test_1var,
                     g_transform, kraus_eval, loewner_monotone_test,
                     matrix_apply, verify_convexity1_witness,
                     verify_monotone_witness)
from .parsing import (_parse_signature_field, infer_signature,
                      parse_polynomial)
from .presets import (KrausLiftFunction, get_preset, random_base_tuple,
                      scalar_from_polynomial)
from .slices import certify_degree_two
from .tolerances import AXIOM_TOL, COEFF_ZERO_TOL, WITNESS_TOL
from .tuples import (HermTuple, derived_rng, hermitian_with_spectrum_in,
                     identity_tuple, matrix_to_json, tuple_from_json,
                     zero_tuple)

SCHEMA = "ncconvex/1"
_A_SALT = 1299709


def _dump(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True, allow_nan=False),
    byte for byte; a non-finite number raises ValueError (exit 2) instead
    of printing Infinity or NaN, which strict JSON parsers reject.
    indent=2 runs json's pure-Python encoder, so each matrix grid (a
    non-empty list of non-empty rows of [float, float] cells) goes in as
    a placeholder and comes out as float reprs in fixed templates."""
    grids: list = []

    def swap(v):
        if type(v) is dict:
            return {k: swap(x) for k, x in v.items()}
        if type(v) is not list or not v or type(v[0]) not in (list, dict):
            return v
        cells = (list(chain.from_iterable(v))
                 if all([type(row) is list and row for row in v]) else [v])
        if (set(map(type, cells)) == {list} and set(map(len, cells)) == {2}
                and set(map(type, chain.from_iterable(cells))) == {float}):
            grids.append(v)
            return f"\0grid{len(grids) - 1}\0"
        return [swap(x) for x in v]

    swapped = swap(payload)
    try:
        text = json.dumps(swapped, indent=2, sort_keys=True, allow_nan=False)
        for k, grid in enumerate(grids):
            head, *tail = text.split(json.dumps(f"\0grid{k}\0"))
            line = head[head.rfind("\n") + 1:]
            pad = " " * (len(line) - len(line.lstrip(" ")))
            cell = f"{pad}    [\n{pad}      %r,\n{pad}      %r\n{pad}    ]"
            rows = [f"{pad}  [\n" + ",\n".join([cell] * len(row))
                    + f"\n{pad}  ]" for row in grid]
            body = ("[\n" + ",\n".join(rows) + f"\n{pad}]") % tuple(
                chain.from_iterable(chain(*grid)))
            if len(tail) != 1 or "n" in body:   # a clash, inf or nan
                raise ValueError
            text = head + body + tail[0]
        return text
    except ValueError:
        if not grids:
            raise
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


def _emit(args, payload: dict, code: int) -> int:
    payload = dict(payload)
    payload["schema"] = SCHEMA
    text = _dump(payload)
    print(text)
    if getattr(args, "json_out", None):
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return code


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _parse_interval(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad --interval {text!r}, want 'lo,hi'")
    lo, hi = float(parts[0]), float(parts[1])
    if not math.isfinite(hi - lo):                  # NaN or inf ends too
        raise ValueError(f"--interval ({lo}, {hi}) must have finite ends "
                         "and a finite width")
    if not lo < hi:
        raise ValueError(f"empty interval ({lo}, {hi})")
    return lo, hi


def _parse_counts(flag: str, text: str) -> tuple:
    """The integers of a comma-separated list flag such as --sizes or
    --multiplicities; an empty list, a non-integer or a value below 1
    raises, naming the flag."""
    try:
        values = tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        values = ()
    if not values or min(values) < 1:
        raise ValueError(f"{flag} must list integers of at least 1, "
                         f"got {text!r}")
    return values


def _parse_measure(text: str) -> DiscreteMeasure:
    """'0.5:1' or '-0.3:0.25,0.7:0.75' -> atoms."""
    atoms = []
    for piece in text.split(","):
        loc, _, wt = piece.partition(":")
        atoms.append((float(loc), float(wt) if wt else 1.0))
    return DiscreteMeasure(tuple(atoms))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ShapeError(f"JSON in {path} is nested too deeply") from None


def _tuple_from_arg(value: str, kind: str, g: int,
                    n: Optional[int] = None) -> HermTuple:
    """'identity3' / 'zero2' magic values, else a tuple JSON file; a size
    n, if given, must match either."""
    for magic, maker in (("identity", identity_tuple), ("zero", zero_tuple)):
        if value.startswith(magic) and value[len(magic):].isdigit():
            size = int(value[len(magic):])
            if size < 1:
                raise ValueError(f"--{kind}-tuple {value} must name a size "
                                 "of at least 1")
            if n is not None and n != size:
                raise ShapeError(f"declared n={n} but entries are {size}")
            return maker(g, size, kind=kind)
    data = _load_json(value)
    T = tuple_from_json(data, kind=kind, n=n)
    if T.arity != g:
        raise ValueError(f"{kind}-tuple has arity {T.arity}, signature wants {g}")
    return T


# -- function sources ---------------------------------------------------------


def _function_desc(args) -> dict:
    """The descriptor of the function named by the flags; output and
    witness files carry it, and the functions below rebuild from it."""
    if getattr(args, "preset", None):
        return {"preset": get_preset(args.preset).name}
    if getattr(args, "series_file", None):
        return {"series": _load_series(args.series_file).to_json_dict()}
    if getattr(args, "expr", None):
        sig = (_parse_signature_field(args.signature) if args.signature
               else infer_signature(args.expr))
        return {"expr": args.expr, "signature": f"{sig.g_a},{sig.g_x}"}
    if hasattr(args, "mu"):                         # `kraus`'s own flags
        return {"f0": args.f0, "f1": args.f1, "f2": args.f2,
                "mu": _parse_measure(args.mu).to_json_dict()}
    series_flag = ", --series-file" if hasattr(args, "series_file") else ""
    raise ValueError(f"provide a function: --expr{series_flag} or --preset")


def _load_series(path: str) -> NcPowerSeries:
    """The series in a --series-file; JSON of another shape raises
    ShapeError."""
    data = _load_json(path)
    try:
        return NcPowerSeries.from_json_dict(data)
    except KeyError as exc:
        raise ShapeError(f"series file lacks {exc}") from exc
    except (TypeError, AttributeError, IndexError, OverflowError) as exc:
        raise ShapeError(f"series file is malformed: {exc}") from exc


def _nc_function(args) -> tuple:
    """Returns (NcFunction, descriptor dict, preset | None)."""
    desc = _function_desc(args)
    preset = get_preset(desc["preset"]) if "preset" in desc else None
    return _nc_function_from_descriptor(desc), desc, preset


def _nc_function_from_descriptor(desc: dict) -> NcFunction:
    if "preset" in desc:
        return get_preset(desc["preset"]).make()
    if "series" in desc:
        return SeriesNcFunction(NcPowerSeries.from_json_dict(desc["series"]))
    if "mu" in desc:
        return KrausLiftFunction(desc["f0"], desc["f1"], desc["f2"],
                                 DiscreteMeasure.from_json_dict(desc["mu"]))
    sig = _parse_signature_field(desc["signature"])
    return PolynomialNcFunction(parse_polynomial(desc["expr"], sig),
                                name=desc["expr"])


def _scalar_function(args) -> tuple:
    """Returns (ScalarFn, descriptor, interval): --interval, else the
    preset's, else (-1, 1)."""
    desc = _function_desc(args)
    if args.g_transform:
        desc["g_transform"] = True
    if args.interval:
        interval = _parse_interval(args.interval)
    else:
        interval = (get_preset(desc["preset"]).interval if "preset" in desc
                    else (-1.0, 1.0))
    return _scalar_from_descriptor(desc), desc, interval


def _scalar_from_descriptor(desc: dict) -> ScalarFn:
    if "preset" in desc:
        preset = get_preset(desc["preset"])
        if preset.make_scalar is None:
            raise ValueError(f"preset {preset.name!r} has no one-variable view")
        fn = preset.make_scalar()
    elif "mu" in desc:                              # written by `kraus`
        fn = _nc_function_from_descriptor(desc).scalar_fn()
    else:
        sig = _parse_signature_field(desc["signature"])
        fn = scalar_from_polynomial(parse_polynomial(desc["expr"], sig),
                                    name=desc["expr"])
    if desc.get("g_transform"):
        fn = g_transform(fn)
    return fn


def _function_at_base(args, default_epsilon: float) -> tuple:
    """(F, descriptor, epsilon, A) of a run over C_A: --epsilon, else the
    preset's, else the given default; --a-tuple at its own size, which an
    explicit --size must match, else a random base tuple of --size
    (default 2)."""
    F, desc, preset = _nc_function(args)
    epsilon = (args.epsilon if args.epsilon is not None
               else preset.epsilon if preset else default_epsilon)
    g_a = F.signature.g_a
    A = (_tuple_from_arg(args.a_tuple, "a", g_a, n=args.size) if args.a_tuple
         else random_base_tuple(g_a, args.size or 2,
                                derived_rng(args.seed, _A_SALT)))
    return F, desc, epsilon, A


def _passed(args, report) -> bool:
    """The report's verdict, or its min_eig against --tol if given."""
    if args.tol is None:
        return report.passed
    return (report.min_eig >= -args.tol
            and report.extra.get("hermitian_ok", True))


def _conclude(args, payload: dict, passed: bool, kind: str,
              witness: Optional[dict]) -> int:
    """Exit 0 on a pass; otherwise write the witness, if there is one,
    as a file of the given kind and exit 1."""
    if not passed and witness is not None:
        path = getattr(args, "witness_out", None) or "witness.json"
        # serialized before the file opens, so a refused payload leaves
        # no empty witness behind
        text = _dump({"kind": kind, "function": payload["function"],
                      "witness": witness, "schema": SCHEMA})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        payload["witness_file"] = path
    return _emit(args, payload, 0 if passed else 1)


def _conclude_report(args, command: str, desc: dict, report,
                     **fields) -> int:
    """A falsifier's run: its payload of the command's fields, the
    report's and the verdict under --tol, concluded with the report's
    witness as a file of the command's kind."""
    passed = _passed(args, report)
    payload = {"command": command, "function": desc, "seed": args.seed,
               **fields, **report.to_json_dict(), "pass": passed}
    return _conclude(args, payload, passed, command, report.witness)


# witness kind -> (the subcommand that re-checks it, the loader of its
# function descriptor, its verifier).  The lambdas look the verifier up
# when they run, so a verifier replaced on this module is the one called.
_VERIFIERS = {
    "convexity": ("convexity", _nc_function_from_descriptor,
                  lambda F, w: verify_convexity_witness(F, w)),
    "hypothesis_fails": ("convexity", _nc_function_from_descriptor,
                         lambda F, w: verify_convexity_witness(F, w)),
    "convexity1": ("convexity1", _scalar_from_descriptor,
                   lambda f, w: verify_convexity1_witness(f, w)),
    "monotone": ("monotone", _scalar_from_descriptor,
                 lambda f, w: verify_monotone_witness(f, w)),
}


def _verify(args) -> int:
    """Re-check a witness file; exit 0 iff it still violates."""
    data = _load_json(args.verify_witness)
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in _VERIFIERS:
        raise ValueError(f"no verifier for kind {kind!r}")
    command, load, verify = _VERIFIERS[kind]
    if command != args.command:
        raise ValueError(f"a {kind} witness is re-checked by "
                         f"'{command} --verify-witness', not '{args.command}'")
    try:
        eig = verify(load(data["function"]), data["witness"])
    except KeyError as exc:
        raise ValueError(f"{kind} witness file lacks {exc}") from exc
    except (TypeError, IndexError, AttributeError, ShapeError) as exc:
        raise ValueError(f"{kind} witness file is malformed: {exc}") from exc
    violates = eig < -WITNESS_TOL
    return _emit(args, {"command": f"{command}-verify", "min_eig": eig,
                        "violates": violates}, 0 if violates else 1)


# -- subcommands --------------------------------------------------------------


def _cmd_eval(args) -> int:
    F, desc, _ = _nc_function(args)
    sig = F.signature
    n = None
    X = A = None
    if args.x_tuple:
        X = _tuple_from_arg(args.x_tuple, "x", sig.g_x)
        n = X.n
    if args.a_tuple:
        A = _tuple_from_arg(args.a_tuple, "a", sig.g_a, n=n)
        n = A.n
    if X is None and sig.g_x == 0 and n is not None:
        X = HermTuple([], kind="x", n=n)
    if A is None and sig.g_a == 0 and n is not None:
        A = HermTuple([], kind="a", n=n)
    if X is None or A is None:
        raise ValueError("eval needs tuples covering every declared variable")
    M = F(A, X)
    return _emit(args, {"command": "eval", "function": desc,
                        "result": matrix_to_json(M)}, 0)


def _cmd_convexity(args) -> int:
    F, desc, epsilon, A = _function_at_base(args, 1.0)
    report = test_convexity_at_CA(
        F, A, epsilon, multiplicities=args.multiplicities, trials=args.trials,
        seed=args.seed)
    if args.csv_out:
        _write_csv(args.csv_out, "trial,defect_min_eig",
                   list(enumerate(report.trial_min_eigs)))
    return _conclude_report(args, "convexity", desc, report)


def _cmd_monotone(args) -> int:
    fn, desc, interval = _scalar_function(args)
    report = loewner_monotone_test(fn, interval, points_per_trial=args.points,
                                   trials=args.trials, seed=args.seed)
    return _conclude_report(args, "monotone", desc, report,
                            interval=list(interval))


def _cmd_convexity1(args) -> int:
    fn, desc, interval = _scalar_function(args)
    report = convexity_test_1var(fn, interval, size=args.size,
                                 trials=args.trials, seed=args.seed)
    return _conclude_report(args, "convexity1", desc, report,
                            interval=list(interval), size=args.size)


def _cmd_kraus(args) -> int:
    lift, desc, _ = _nc_function(args)
    if not isinstance(lift, KrausLiftFunction):
        raise ValueError(f"preset {desc['preset']!r} is not a Kraus lift")
    f0, f1, f2, mu = lift.f0, lift.f1, lift.f2, lift.mu
    interval = _parse_interval(args.interval)
    lo, hi = interval
    fn = lift.scalar_fn(domain=(lo - 0.05, hi + 0.05))

    # scalar sweep: the resolvent route on a stack of 1x1 matrices
    ts = np.linspace(lo, hi, args.sweep_points)
    values = kraus_eval(f0, f1, f2, mu, ts[:, None, None])[:, 0, 0].real
    values = values.tolist()

    # cross-check the resolvent route against spectral calculus, to
    # 1e-9 relative to the size of the values; the two routes disagreeing
    # is an internal error, not a falsified property
    rng = derived_rng(args.seed, 4241)
    cross_dev = 0.0
    for k in range(args.matrix_checks):
        size = 2 + k % 4
        B = hermitian_with_spectrum_in(size, lo, hi, rng)
        FB = matrix_apply(fn, B)
        dev = float(np.max(np.abs(kraus_eval(f0, f1, f2, mu, B) - FB)))
        if not dev < 1e-9 * max(1.0, float(np.max(np.abs(FB)))):
            raise NcError(f"matrix check {k}: the resolvent and spectral "
                          f"routes disagree by {dev:.3e}")
        cross_dev = max(cross_dev, dev)

    report = convexity_test_1var(fn, interval, size=args.size,
                                 trials=args.trials, seed=args.seed)
    passed = _passed(args, report)
    payload = {
        "command": "kraus", "function": desc, "seed": args.seed,
        "interval": list(interval),
        "sweep": {"points": [float(t) for t in ts], "values": values},
        "cross_check_max_dev": cross_dev,
        "convexity": report.to_json_dict(),
        "pass": passed,
    }
    if args.csv_out:
        _write_csv(args.csv_out, "t,f", list(zip(payload["sweep"]["points"],
                                                 values)))
    return _conclude(args, payload, passed, "convexity1", report.witness)


def _cmd_certify(args) -> int:
    F, desc, epsilon, A = _function_at_base(args, 0.5)
    report = certify_degree_two(
        F, A, epsilon, samples=args.samples, trials=args.trials,
        seed=args.seed, degree_cap=args.degree_cap,
        multiplicities=args.multiplicities,
        coeff_tol=args.tol if args.tol is not None else COEFF_ZERO_TOL)
    payload = {"command": "certify", "function": desc, "seed": args.seed,
               **report.to_json_dict()}
    return _conclude(args, payload, report.consistent, report.verdict.lower(),
                     report.witness)


def _cmd_axioms(args) -> int:
    F, desc, _ = _nc_function(args)
    report = check_nc_function_axioms(
        F, sizes=args.sizes, samples=args.samples,
        seed=args.seed, tol=args.tol if args.tol is not None else AXIOM_TOL)
    payload = {"command": "axioms", "function": desc, "seed": args.seed,
               **report.to_json_dict()}
    return _emit(args, payload, 0 if report.passed else 1)


# -- parser ------------------------------------------------------------------

# each flag's add_argument keywords, once
_FLAGS = {
    "expr": {"help": "polynomial expression, e.g. 'x1^2'"},
    "signature": {"metavar": "GA,GX",
                  "help": "arities 'g_a,g_x'; inferred from --expr if omitted"},
    "preset": {"help": "named function (square, quartic, kraus-halfmass, "
                       "mixed-ax)"},
    "series-file": {"help": "truncated power series JSON"},
    "a-tuple": {"help": "tuple JSON file, or identityN/zeroN"},
    "x-tuple": {"help": "tuple JSON file, or identityN/zeroN"},
    "f0": {"type": float, "default": 0.0},
    "f1": {"type": float, "default": 0.0},
    "f2": {"type": float, "default": 2.0},
    "mu": {"default": "0.5:1", "help": "atoms 'loc:weight,loc:weight'"},
    "interval": {"metavar": "LO,HI"},
    "points": {"type": int, "default": 5},
    "sweep-points": {"type": int, "default": 100},
    "matrix-checks": {"type": int, "default": 10},
    "size": {"type": int, "default": 2},
    "epsilon": {"type": float},
    "trials": {"type": int, "default": 200},
    "samples": {"type": int, "default": 100},
    "degree-cap": {"type": int, "default": 8},
    "multiplicities": {"default": "1,2"},
    "sizes": {"default": "1,2,3,4"},
    "g-transform": {"action": "store_true",
                    "help": "test g(t) = (f(t)-f(0))/t instead of f"},
    "witness-out": {"metavar": "FILE"},
    "csv-out": {"metavar": "FILE"},
    "verify-witness": {"metavar": "FILE"},
    "seed": {"type": int, "default": 0},
    "json-out": {"metavar": "FILE", "help": "also write JSON here"},
    "tol": {"type": float, "help": "override the pass threshold"},
}

_FN = "expr signature preset"
_COMMON = "seed json-out tol"
_BASE = {"a-tuple": {"help": "base tuple JSON (default: random)"},
         "size": {"default": None, "help": "base size kappa"}}

# subcommand -> (help line, runner, its flags in help order, the keywords
# by which its flags differ from _FLAGS)
_SUBCOMMANDS = {
    "eval": ("evaluate a function at a tuple", _cmd_eval,
             f"{_FN} series-file a-tuple x-tuple {_COMMON}", {}),
    "convexity": (
        "matrix convexity over C_A levels", _cmd_convexity,
        f"{_FN} series-file a-tuple size epsilon trials multiplicities "
        f"witness-out csv-out verify-witness {_COMMON}",
        {**_BASE, "csv-out": {"help": "defect min-eigenvalue per trial"},
         "verify-witness": {
             "help": "re-check a stored witness instead of testing"}}),
    "monotone": (
        "Loewner operator-monotonicity test", _cmd_monotone,
        f"{_FN} interval points trials g-transform witness-out "
        f"verify-witness {_COMMON}", {}),
    "convexity1": (
        "one-variable matrix convexity", _cmd_convexity1,
        f"{_FN} interval size trials g-transform witness-out verify-witness "
        f"{_COMMON}",
        {"trials": {"default": 300}, "g-transform": {"help": None}}),
    "kraus": (
        "representation sweep + convexity check", _cmd_kraus,
        "preset f0 f1 f2 mu interval sweep-points matrix-checks size trials "
        f"witness-out csv-out {_COMMON}",
        {"preset": {"help": "kraus-halfmass"},
         "interval": {"metavar": None, "default": "-0.9,0.9"},
         "trials": {"default": 300}, "csv-out": {"help": "sweep t,f columns"}}),
    "certify": (
        "x-degree <= 2 certificate", _cmd_certify,
        f"{_FN} series-file a-tuple size epsilon trials samples degree-cap "
        f"multiplicities witness-out {_COMMON}",
        {**_BASE, "trials": {"help": "convexity subtest trials"},
         "samples": {"default": 50, "help": "slice extraction samples"}}),
    "axioms": ("direct-sum / unitary axiom check", _cmd_axioms,
               f"{_FN} series-file samples sizes {_COMMON}", {}),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The CLI's parser for argv.  Only the subcommand that argv names
    gets its flags, and when argv starts with it, no other subcommand is
    registered: every parser and add_argument builds a help formatter,
    and argparse then prints none of the others' help, only the usage
    line, which still names them all."""
    command = next((a for a in argv if not a.startswith("-")), "")
    alone = command in _SUBCOMMANDS and argv[0] == command
    ap = argparse.ArgumentParser(
        prog="ncconvex",
        description="nc polynomial evaluation, matrix convexity and "
                    "monotonicity testing, degree-2 certification")
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar="{%s}" % ",".join(_SUBCOMMANDS) if alone else None)
    for name, (help_line, fn, flags, own) in _SUBCOMMANDS.items():
        if alone and name != command:
            continue
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(fn=fn)
        for flag in flags.split() if name == command else ():
            p.add_argument(f"--{flag}",
                           **{**_FLAGS[flag], **own.get(flag, {})})
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        for flag in ("trials", "samples", "size", "matrix-checks",
                     "sweep-points"):
            value = getattr(args, flag.replace("-", "_"), None)
            if value is not None and value < 1:
                raise ValueError(f"--{flag} must be at least 1, got {value}")
        for flag in ("sizes", "multiplicities"):
            if hasattr(args, flag):
                setattr(args, flag,
                        _parse_counts(f"--{flag}", getattr(args, flag)))
        if args.tol is not None and not math.isfinite(args.tol):
            raise ValueError(f"--tol must be a finite number, got {args.tol}")
        epsilon = getattr(args, "epsilon", None)
        if epsilon is not None and not 0 < epsilon < math.inf:
            raise ValueError(f"--epsilon must be a positive finite number, "
                             f"got {epsilon}")
        if getattr(args, "verify_witness", None):
            return _verify(args)
        return args.fn(args)
    except (NcError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
