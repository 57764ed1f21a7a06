"""Hermitian matrix tuples and the sampling side of the domain story.

A HermTuple is an immutable tuple of same-size complex Hermitian
matrices tagged with the variable class it instantiates ('a' or 'x').
Ingest (hermitian_stack, the same for one tuple or a stack of them)
enforces Hermiticity within HERMITIAN_INGEST_TOL and stores the
symmetrization (M + M*)/2, so downstream eigensolves can use eigh
unconditionally.

The tuple norm is the largest eigenvalue of (sum_i X_i X_i*)^(1/2).

The samplers come in two halves so the testers can batch them: a draw
that takes a sample's raw numbers from its generator, and a stacked
build that turns the raw numbers of many samples into matrices with
the same arithmetic, bit for bit, that one sample gets alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SignatureError, UnitarityError
from .tolerances import CA_UNITARY_TOL, HERMITIAN_INGEST_TOL, UNITARY_TOL


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
        mats = [np.asarray(raw, dtype=complex) for raw in matrices]
        for k, m in enumerate(mats):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ShapeError(f"entry {k} has shape {m.shape}, want square")
        if mats:
            sizes = {m.shape[0] for m in mats}
            if len(sizes) != 1:
                raise ShapeError(f"mixed entry sizes {sorted(sizes)}")
            self.n = mats[0].shape[0]
            if n is not None and n != self.n:
                raise ShapeError(f"declared n={n} but entries are {self.n}")
            H = hermitian_stack(np.array(mats), tol)
            H.flags.writeable = False
            mats = list(H)
        else:
            if n is None:
                raise ShapeError("empty tuple needs an explicit size n")
            self.n = int(n)
        self.entries = tuple(mats)
        self.kind = kind

    @classmethod
    def _trusted(cls, matrices, kind: str, n: int) -> "HermTuple":
        """A tuple over matrices that have already passed ingest (for
        instance the rows of hermitian_stack's output); no check, no
        copy."""
        T = object.__new__(cls)
        T.entries = tuple(matrices)
        T.n = n
        T.kind = kind
        return T

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


def _check_unitary(U: np.ndarray, n: int, tol: float = UNITARY_TOL,
                   stacked: bool = False) -> None:
    """U must be an n x n unitary within tol, or with stacked=True a
    (c, n, n) stack of them; the first member that is not is named by
    its deviation."""
    if U.shape[stacked:] != (n, n) or U.ndim != 2 + stacked:
        raise ShapeError(f"conjugator has shape {U.shape}, want ({n},{n})")
    dev = np.max(np.abs(U.conj().swapaxes(-1, -2) @ U - np.eye(n)),
                 axis=(-2, -1))
    bad = np.flatnonzero(dev > tol)
    if bad.size:
        raise UnitarityError("matrix is not unitary: max |U*U - I| = "
                             f"{float(dev.flat[bad[0]]):.3e}")


def tuple_norm(X: HermTuple) -> float:
    """sqrt of the top eigenvalue of sum_i X_i X_i*."""
    return float(stack_norms(X.entries))


def stack_norms(mats):
    """tuple_norm of every tuple in a stack, given as the sequence of its
    g entries, each of shape (..., n, n); 0.0 for g = 0."""
    if not len(mats):
        return 0.0
    s = np.zeros(np.shape(mats[0]), dtype=complex)
    for m in mats:
        s += m @ m.conj().swapaxes(-1, -2)
    top = np.linalg.eigvalsh(s)[..., -1]
    return np.sqrt(np.maximum(top, 0.0))


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


def _ginibre(rng, shape: tuple) -> np.ndarray:
    """Complex Gaussian matrices: the real parts, then the imaginary
    parts, drawn as one (2, *shape) block."""
    return _complex(rng.standard_normal((2,) + shape))


def _complex(parts: np.ndarray) -> np.ndarray:
    """Complex matrices from a (..., 2, n, n) stack of real and
    imaginary parts."""
    return parts[..., 0, :, :] + 1j * parts[..., 1, :, :]


def _haar_q(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from Ginibre samples z of shape (..., n, n): the QR
    factor Q with the phases of R's diagonal moved into it."""
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[np.abs(d) < 1e-300] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def haar_unitary(n: int, rng) -> np.ndarray:
    """QR of a complex Ginibre sample with the R-diagonal phase fixed."""
    return _haar_q(_ginibre(as_rng(rng), (n, n)))


def _hermitian_from(g: np.ndarray, scale: float = 1.0) -> np.ndarray:
    return scale * (g + g.conj().swapaxes(-1, -2)) / 2


def random_hermitian(n: int, rng, scale: float = 1.0) -> np.ndarray:
    return _hermitian_from(_ginibre(as_rng(rng), (n, n)), scale)


def draw_spectral(rng, n: int, lo: float, hi: float) -> tuple:
    """The raw numbers of hermitian_with_spectrum_in: the spectrum, then
    the real and imaginary parts of the unitary's Ginibre sample."""
    lam = rng.uniform(lo, hi, size=n)
    return lam, rng.standard_normal((2, n, n))


def spectral_lift(lam: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """U* diag(lam) U, symmetrized, for stacks lam (..., n) and parts
    (..., 2, n, n) of draw_spectral output.  The product stays the
    matmul by diag(lam) that one matrix always got, so no kernel can
    round a stack member differently."""
    u = _haar_q(_complex(parts))
    diag = np.zeros(lam.shape + lam.shape[-1:])
    idx = np.arange(lam.shape[-1])
    diag[..., idx, idx] = lam
    m = u.conj().swapaxes(-1, -2) @ diag @ u
    return (m + m.conj().swapaxes(-1, -2)) / 2


def hermitian_with_spectrum_in(n: int, lo: float, hi: float, rng) -> np.ndarray:
    """U* diag(lambda) U with lambda uniform in (lo, hi)."""
    return spectral_lift(*draw_spectral(as_rng(rng), n, lo, hi))


def hermitian_stack(M: np.ndarray, tol: float = HERMITIAN_INGEST_TOL) -> np.ndarray:
    """The ingest of HermTuple, for one tuple of shape (g, n, n) or a
    stack of them (..., g, n, n): an entry further than tol from its
    adjoint is refused, naming its index in the tuple, and otherwise
    (M + M*)/2 is returned."""
    Mh = M.conj().swapaxes(-1, -2)
    diff = np.abs(M - Mh)
    # one whole-stack reduction when all is well; per entry, a NaN
    # deviation compares false against tol and passes, as it always has
    if diff.size and not diff.max() <= tol:
        dev = diff.max(axis=(-2, -1))
        over = np.flatnonzero(dev > tol)
        if over.size:
            bad = int(over[0])
            raise ValueError(f"entry {bad % M.shape[-3]} is not Hermitian: "
                             f"max deviation {float(dev.flat[bad]):.3e}")
    return (M + Mh) / 2


def draw_x_ball(g: int, n: int, epsilon: float, count: int, rng) -> list:
    """The raw numbers of sample_x_ball, in its order: per sample, the
    real and imaginary parts of g Ginibre matrices as one (g, 2, n, n)
    draw, then the radius.  Returns [(parts, radius)] per sample."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not g:
        return [(np.zeros((0, 2, n, n)), 0.0)] * count
    return [(rng.standard_normal((g, 2, n, n)), rng.uniform(0.0, epsilon))
            for _ in range(count)]


def _letters(T: np.ndarray) -> list:
    """The letters of a (c, g, n, n) stack of tuples, each (c, n, n)."""
    return list(T.swapaxes(0, 1))


def x_ball_points(draws) -> np.ndarray:
    """Stacked x-tuples (c, g, n, n) from draw_x_ball samples: Hermitian
    parts, ingested and rescaled to tuple norm r, ingested again."""
    Z = np.array([z for z, _ in draws])
    r = np.array([r for _, r in draws])
    H = hermitian_stack(_hermitian_from(_complex(Z)))
    if not Z.shape[1]:
        return H
    nx = stack_norms(_letters(H))
    pos = nx > 0
    X = hermitian_stack((r / np.where(pos, nx, 1.0))[:, None, None, None] * H)
    if not pos.all():                   # a zero tuple stays unscaled
        X[~pos] = H[~pos]
    return X


def sample_x_ball(sig, n: int, epsilon: float, count: int, seed) -> list:
    """Independent Hermitian x-tuples with tuple_norm < epsilon.

    Gaussian Hermitian entries, rescaled so the tuple norm equals a
    radius drawn uniformly in (0, epsilon).  Deterministic under seed.
    """
    g = sig.g_x if hasattr(sig, "g_x") else int(sig)
    draws = draw_x_ball(g, n, epsilon, count, as_rng(seed))
    if not draws:
        return []
    X = x_ball_points(draws)
    X.flags.writeable = False
    return [HermTuple._trusted(x, "x", n) for x in X]


# -- elements of the smallest A-closed set --------------------------------


class CASetElement:
    """Realization U*(I_m (x) A)U of a point in the nc set generated by A."""

    __slots__ = ("base", "m", "unitary", "tuple")

    def __init__(self, base: HermTuple, m: int, U: np.ndarray):
        if m < 1:
            raise ValueError("multiplicity must be >= 1")
        U = np.asarray(U, dtype=complex)
        _check_unitary(U, base.n * m, tol=CA_UNITARY_TOL)
        H = _realize(base, m, U[None])[0]
        H.flags.writeable = False
        self.base = base
        self.m = m
        self.unitary = U
        self.tuple = HermTuple._trusted(H, base.kind, base.n * m)

    def __repr__(self) -> str:
        return f"CASetElement(kappa={self.base.n}, m={self.m})"


def _realize(base: HermTuple, m: int, U: np.ndarray) -> np.ndarray:
    """The ingested tuples U*(I_m (x) A)U, shape (c, g, n, n), for a
    (c, n, n) stack of unitaries: one kron per letter of A, one
    broadcast product over the stack."""
    n = base.n * m
    L = np.array([np.kron(np.eye(m), a) for a in base.entries])
    Uh = U.conj().swapaxes(-1, -2)
    return hermitian_stack(Uh[:, None] @ L.reshape(-1, n, n) @ U[:, None])


def ca_lift(A: HermTuple, m: int, parts: np.ndarray) -> np.ndarray:
    """The tuples of ca_element(A, m, "random") for a (c, 2, n, n) stack
    of the raw Ginibre blocks its Haar unitaries come from: a (c, g, n, n)
    stack, each member with the bits ca_element gives it alone."""
    U = _haar_q(_complex(parts))
    _check_unitary(U, A.n * m, tol=CA_UNITARY_TOL, stacked=True)
    return _realize(A, m, U)


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
    m = np.ascontiguousarray(m, dtype=complex)
    # each entry as [re, im]: one tolist() of the float view
    return {"n": int(m.shape[0]),
            "entries": m.view(float).reshape(m.shape + (2,)).tolist()}


def matrix_from_json(data: dict) -> np.ndarray:
    n = int(data["n"])
    m = np.array([[complex(c[0], c[1]) for c in row] for row in data["entries"]],
                 dtype=complex)
    if m.shape != (n, n):
        raise ShapeError(f"matrix JSON declares n={n} but entries are {m.shape}")
    return m


def tuple_to_json(T) -> list:
    """A HermTuple, or a (g, n, n) array of its matrices, as JSON."""
    return [matrix_to_json(m) for m in T]


def tuple_from_json(data, kind: str = "x", n: int | None = None) -> HermTuple:
    """Accepts a list of per-matrix objects or a single matrix object."""
    if isinstance(data, dict):
        data = [data]
    return HermTuple([matrix_from_json(d) for d in data], kind=kind, n=n)
