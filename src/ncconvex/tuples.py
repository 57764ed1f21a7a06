"""Hermitian matrix tuples and the sampling side of the domain story.

A HermTuple is an immutable tuple of same-size complex Hermitian
matrices tagged with the variable class it instantiates ('a' or 'x').
Ingest enforces Hermiticity within HERMITIAN_INGEST_TOL and stores the
symmetrization (M + M*)/2, so downstream eigensolves can use eigh
unconditionally.

The tuple norm is the largest eigenvalue of (sum_i X_i X_i*)^(1/2).
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SignatureError, UnitarityError
from .tolerances import HERMITIAN_INGEST_TOL, UNITARY_TOL


def derived_rng(*key) -> np.random.Generator:
    """Generator seeded by an integer key path; identical keys give
    identical streams, distinct keys are statistically independent.
    Tuple segments flatten, so composite seeds like (base, level)
    thread through unchanged."""
    flat = []
    for k in key:
        if isinstance(k, (tuple, list)):
            flat.extend(k)
        else:
            flat.append(k)
    return np.random.default_rng([int(k) & 0xFFFFFFFF for k in flat])


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return derived_rng(seed)


class HermTuple:
    """Tuple of n x n complex Hermitian matrices; the evaluation point."""

    __slots__ = ("entries", "n", "kind")

    def __init__(self, matrices, kind: str = "x", n: int | None = None,
                 tol: float = HERMITIAN_INGEST_TOL):
        if kind not in ("a", "x"):
            raise ValueError(f"kind must be 'a' or 'x', got {kind!r}")
        mats = []
        for k, raw in enumerate(matrices):
            m = np.asarray(raw, dtype=complex)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ShapeError(f"entry {k} has shape {m.shape}, want square")
            dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
            if dev > tol:
                raise ValueError(
                    f"entry {k} is not Hermitian: max deviation {dev:.3e}")
            m = (m + m.conj().T) / 2
            m.flags.writeable = False
            mats.append(m)
        if mats:
            sizes = {m.shape[0] for m in mats}
            if len(sizes) != 1:
                raise ShapeError(f"mixed entry sizes {sorted(sizes)}")
            self.n = mats[0].shape[0]
            if n is not None and n != self.n:
                raise ShapeError(f"declared n={n} but entries are {self.n}")
        else:
            if n is None:
                raise ShapeError("empty tuple needs an explicit size n")
            self.n = int(n)
        self.entries = tuple(mats)
        self.kind = kind

    # -- container protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    @property
    def arity(self) -> int:
        return len(self.entries)

    # -- linear structure ---------------------------------------------------

    def _check_mixable(self, other: "HermTuple") -> None:
        if self.arity != other.arity:
            raise SignatureError(
                f"arity mismatch: {self.arity} vs {other.arity}")
        if self.n != other.n:
            raise ShapeError(f"size mismatch: {self.n} vs {other.n}")
        if self.kind != other.kind:
            raise ValueError(f"kind mismatch: {self.kind} vs {other.kind}")

    def __add__(self, other):
        if not isinstance(other, HermTuple):
            return NotImplemented
        self._check_mixable(other)
        return HermTuple([a + b for a, b in zip(self.entries, other.entries)],
                         kind=self.kind, n=self.n)

    def __sub__(self, other):
        if not isinstance(other, HermTuple):
            return NotImplemented
        self._check_mixable(other)
        return HermTuple([a - b for a, b in zip(self.entries, other.entries)],
                         kind=self.kind, n=self.n)

    def scale(self, c: float) -> "HermTuple":
        c = complex(c)
        if c.imag != 0.0:
            raise ValueError("only real scaling preserves Hermiticity")
        return HermTuple([c.real * m for m in self.entries],
                         kind=self.kind, n=self.n)

    def __mul__(self, c):
        if isinstance(c, (int, float)):
            return self.scale(c)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return self.scale(-1.0)

    # -- domain operations ----------------------------------------------------

    def norm(self) -> float:
        return tuple_norm(self)

    def direct_sum(self, other: "HermTuple") -> "HermTuple":
        if not isinstance(other, HermTuple):
            raise TypeError("direct_sum needs another HermTuple")
        if self.arity != other.arity:
            raise SignatureError(
                f"arity mismatch: {self.arity} vs {other.arity}")
        if self.kind != other.kind:
            raise ValueError(f"kind mismatch: {self.kind} vs {other.kind}")
        return HermTuple([block_diag(a, b)
                          for a, b in zip(self.entries, other.entries)],
                         kind=self.kind, n=self.n + other.n)

    def conjugate(self, U: np.ndarray) -> "HermTuple":
        U = np.asarray(U, dtype=complex)
        _check_unitary(U, self.n)
        return HermTuple([U.conj().T @ m @ U for m in self.entries],
                         kind=self.kind, n=self.n)

    def __repr__(self) -> str:
        return f"HermTuple(kind={self.kind!r}, g={self.arity}, n={self.n})"


def _check_unitary(U: np.ndarray, n: int, tol: float = UNITARY_TOL) -> None:
    if U.shape != (n, n):
        raise ShapeError(f"conjugator has shape {U.shape}, want ({n},{n})")
    dev = float(np.max(np.abs(U.conj().T @ U - np.eye(n))))
    if dev > tol:
        raise UnitarityError(f"matrix is not unitary: max |U*U - I| = {dev:.3e}")


def tuple_norm(X: HermTuple) -> float:
    """sqrt of the top eigenvalue of sum_i X_i X_i*."""
    return matrices_norm(X.entries, X.n)


def matrices_norm(mats, n: int) -> float:
    """tuple_norm of a plain sequence of n x n matrices."""
    if not mats:
        return 0.0
    s = np.zeros((n, n), dtype=complex)
    for m in mats:
        s += m @ m.conj().T
    top = float(np.linalg.eigvalsh(s)[-1])
    return float(np.sqrt(max(top, 0.0)))


def block_diag(M1: np.ndarray, M2: np.ndarray) -> np.ndarray:
    n1, n2 = M1.shape[0], M2.shape[0]
    out = np.zeros((n1 + n2, n1 + n2), dtype=complex)
    out[:n1, :n1] = M1
    out[n1:, n1:] = M2
    return out


def zero_tuple(g: int, n: int, kind: str = "x") -> HermTuple:
    return HermTuple([np.zeros((n, n), dtype=complex) for _ in range(g)],
                     kind=kind, n=n)


def identity_tuple(g: int, n: int, kind: str = "x") -> HermTuple:
    return HermTuple([np.eye(n, dtype=complex) for _ in range(g)],
                     kind=kind, n=n)


# -- sampling ------------------------------------------------------------


def haar_unitary(n: int, rng) -> np.ndarray:
    """QR of a complex Ginibre sample with the R-diagonal phase fixed."""
    rng = as_rng(rng)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))


def random_hermitian(n: int, rng, scale: float = 1.0) -> np.ndarray:
    rng = as_rng(rng)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (g + g.conj().T) / 2


def hermitian_with_spectrum_in(n: int, lo: float, hi: float, rng) -> np.ndarray:
    """U* diag(lambda) U with lambda uniform in (lo, hi)."""
    rng = as_rng(rng)
    lam = rng.uniform(lo, hi, size=n)
    u = haar_unitary(n, rng)
    m = u.conj().T @ np.diag(lam) @ u
    return (m + m.conj().T) / 2


def sample_x_ball(sig, n: int, epsilon: float, count: int, seed) -> list:
    """Independent Hermitian x-tuples with tuple_norm < epsilon.

    Gaussian Hermitian entries, rescaled so the tuple norm equals a
    radius drawn uniformly in (0, epsilon).  Deterministic under seed.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    g = sig.g_x if hasattr(sig, "g_x") else int(sig)
    rng = as_rng(seed)
    out = []
    for _ in range(count):
        if g == 0:
            out.append(HermTuple([], kind="x", n=n))
            continue
        mats = [random_hermitian(n, rng) for _ in range(g)]
        X = HermTuple(mats, kind="x", n=n)
        nx = tuple_norm(X)
        r = rng.uniform(0.0, epsilon)
        out.append(X.scale(r / nx) if nx > 0 else X)
    return out


def shuffle_permutation(m: int, k: int) -> np.ndarray:
    """Perfect shuffle P with P (I_m (x) A) P^T = A (x) I_m for k x k A."""
    p = np.zeros((m * k, m * k))
    for q in range(m):
        for r in range(k):
            p[r * m + q, q * k + r] = 1.0
    return p


# -- elements of the smallest A-closed set --------------------------------


class CASetElement:
    """Realization U*(I_m (x) A)U of a point in the nc set generated by A."""

    __slots__ = ("base", "m", "unitary", "tuple")

    def __init__(self, base: HermTuple, m: int, U: np.ndarray):
        if m < 1:
            raise ValueError("multiplicity must be >= 1")
        U = np.asarray(U, dtype=complex)
        kappa = base.n
        _check_unitary(U, kappa * m, tol=1e-12)
        lifted = [np.kron(np.eye(m), a) for a in base.entries]
        realized = [U.conj().T @ la @ U for la in lifted]
        self.base = base
        self.m = m
        self.unitary = U
        self.tuple = HermTuple(realized, kind=base.kind, n=kappa * m)

    def __repr__(self) -> str:
        return f"CASetElement(kappa={self.base.n}, m={self.m})"


def ca_element(A: HermTuple, m: int, U="random", seed=None) -> CASetElement:
    """Element of C_A at multiplicity m; U may be 'identity', 'random',
    or an explicit unitary."""
    size = A.n * m
    if isinstance(U, str):
        if U == "identity":
            U = np.eye(size, dtype=complex)
        elif U == "random":
            U = haar_unitary(size, as_rng(seed if seed is not None else 0))
        else:
            raise ValueError(f"unknown unitary mode {U!r}")
    return CASetElement(A, m, U)


# -- JSON ------------------------------------------------------------------


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "n": int(m.shape[0]),
        "entries": [[[float(v.real), float(v.imag)] for v in row] for row in m],
    }


def matrix_from_json(data: dict) -> np.ndarray:
    n = int(data["n"])
    m = np.array([[complex(c[0], c[1]) for c in row] for row in data["entries"]],
                 dtype=complex)
    if m.shape != (n, n):
        raise ShapeError(f"matrix JSON declares n={n} but entries are {m.shape}")
    return m


def tuple_to_json(T: HermTuple) -> list:
    return [matrix_to_json(m) for m in T.entries]


def tuple_from_json(data, kind: str = "x", n: int | None = None) -> HermTuple:
    """Accepts a list of per-matrix objects or a single matrix object."""
    if isinstance(data, dict):
        data = [data]
    return HermTuple([matrix_from_json(d) for d in data], kind=kind, n=n)
