"""Named functions used across the CLI and the test corpus.

Four presets anchor the interesting behaviors:

  square         x1^2          convex everywhere, degree 2
  quartic        x1^4          convex as a scalar map, not matrix convex
  kraus-halfmass lift of t^2/(1 - t/2), the point-mass representation;
                 matrix convex on its disk but with every x-degree
                 present, so the degree-2 certificate must flag it
  mixed-ax       a1*x1*a1 + x1*a1*x1 + x1^2, quadratic in x with
                 a-coefficients; convex near small A

The Kraus lift deliberately does NOT expose homogeneous parts: it is
the house black box, forcing the Fourier extraction route.  Its matrix
formula is rational, so complex-scaled slice arguments are legitimate
(analytic_in_z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import NcPolynomial, Signature
from .evaluate import NcFunction, PolynomialNcFunction
from .onevar import (DiscreteMeasure, ScalarFn, _kraus_resolvent,
                     kraus_scalar_fn)
from .parsing import parse_polynomial
from .tuples import HermTuple, _rescaled_points, as_rng


class KrausLiftFunction(NcFunction):
    """One-x-variable matrix lift of the integral representation

        F(X) = f0 I + f1 X + (1/2) f2 sum_k w_k X^2 (I - lambda_k X)^{-1}.

    Defined wherever every resolvent exists; radius = 1/max|lambda|.
    X[0] may carry leading stack axes; the matrix products and the
    resolvent solves broadcast over them.
    """

    def __init__(self, f0: float, f1: float, f2: float, mu: DiscreteMeasure,
                 name: str = "kraus-lift"):
        mu.check_kraus()
        self.f0, self.f1, self.f2 = float(f0), float(f1), float(f2)
        self.mu = mu
        self.signature = Signature(0, 1)
        lams = [abs(l) for l, w in mu.atoms if w > 0]
        top = max(lams) if lams else 0.0
        self.radius = math.inf if top == 0.0 else 1.0 / top
        self.analytic_in_z = True
        self.name = name

    def __call__(self, A, X) -> np.ndarray:
        return _kraus_resolvent(self.f0, self.f1, self.f2, self.mu,
                                np.asarray(X[0], dtype=complex))

    def at_points(self, A, Xs) -> np.ndarray:
        return self(A, [Xs[:, 0]])

    def scalar_fn(self, domain: tuple = (-1.0, 1.0)) -> ScalarFn:
        return kraus_scalar_fn(self.f0, self.f1, self.f2, self.mu,
                               domain=domain, name=f"{self.name}-scalar")

    def __repr__(self):
        return f"KrausLiftFunction({self.name}, radius={self.radius})"


def scalar_from_polynomial(p: NcPolynomial,
                           name: Optional[str] = None) -> ScalarFn:
    """One-x-variable real polynomial as a ScalarFn with exact
    derivatives; commutativity is free in one variable."""
    if p.signature.g_a != 0 or p.signature.g_x != 1:
        raise ValueError("scalar view needs signature (0, 1)")
    deg = 0 if p.is_zero() else int(p.degree)
    c = [0.0] * (deg + 1)
    for w, coeff in p.items():
        if abs(coeff.imag) > 1e-15:
            raise ValueError("scalar view needs real coefficients")
        c[len(w)] += coeff.real
    d1 = [k * c[k] for k in range(1, deg + 1)]
    d2 = [k * d1[k] for k in range(1, deg)]

    def horner(vec):
        def f(t: float) -> float:
            acc = 0.0
            for a in reversed(vec):
                acc = acc * t + a
            return acc
        return f

    fn = ScalarFn(horner(c), d1=horner(d1) if d1 else (lambda t: 0.0),
                  d2=horner(d2) if d2 else (lambda t: 0.0),
                  domain=(-math.inf, math.inf), name=name or str(p))
    fn._on_arrays = True
    return fn


@dataclass(frozen=True)
class Preset:
    name: str
    signature: Signature
    expr: Optional[str]
    make: Callable[[], NcFunction]
    make_scalar: Optional[Callable[[], ScalarFn]]
    interval: tuple
    epsilon: float


def _poly_preset(name, sig, expr, make_scalar, interval, epsilon):
    sig = Signature(*sig)

    def make():
        return PolynomialNcFunction(parse_polynomial(expr, sig), name=name)

    return Preset(name=name, signature=sig, expr=expr, make=make,
                  make_scalar=make_scalar, interval=interval, epsilon=epsilon)


def _halfmass_lift() -> KrausLiftFunction:
    return KrausLiftFunction(0.0, 0.0, 2.0, DiscreteMeasure.point_mass(0.5),
                             name="kraus-halfmass")


_SQ = Signature(0, 1)

PRESETS = {
    "square": _poly_preset(
        "square", (0, 1), "x1^2",
        lambda: scalar_from_polynomial(parse_polynomial("x1^2", _SQ), "t^2"),
        (-1.0, 1.0), 1.0),
    "quartic": _poly_preset(
        "quartic", (0, 1), "x1^4",
        lambda: scalar_from_polynomial(parse_polynomial("x1^4", _SQ), "t^4"),
        (-2.0, 2.0), 2.0),
    "mixed-ax": _poly_preset(
        "mixed-ax", (1, 1), "a1*x1*a1 + x1*a1*x1 + x1^2",
        None, (-1.0, 1.0), 0.5),
    "kraus-halfmass": Preset(
        name="kraus-halfmass", signature=Signature(0, 1), expr=None,
        make=_halfmass_lift,
        make_scalar=lambda: _halfmass_lift().scalar_fn(),
        interval=(-0.9, 0.9), epsilon=0.5),
}

PRESET_NAMES = tuple(sorted(PRESETS))


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")


def random_base_tuple(g: int, kappa: int, seed,
                      norm: float = 0.9) -> HermTuple:
    """Random Hermitian a-tuple of g entries of size kappa at the given
    tuple norm, _rescaled_points of one (1, g, 2, kappa, kappa) Ginibre
    block; with norm < 1 every entry has spectrum inside (-1, 1)."""
    Z = as_rng(seed).standard_normal((1, g, 2, kappa, kappa))
    T = _rescaled_points(Z, np.array([norm]))[0][0]
    T.flags.writeable = False
    return HermTuple._trusted(T, "a", kappa)
