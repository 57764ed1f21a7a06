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

import functools
import math
import operator

import numpy as np

from .errors import ShapeError, SignatureError, UnitarityError
from .tolerances import CA_UNITARY_TOL, HERMITIAN_INGEST_TOL, UNITARY_TOL


def _key_words(key) -> list:
    """The seed words of a key path: tuple segments flatten one level
    and every integer is masked to 32 bits."""
    flat = []
    for k in key:
        if isinstance(k, (tuple, list)):
            flat.extend(k)
        else:
            flat.append(k)
    return [int(k) & 0xFFFFFFFF for k in flat]


def derived_rng(*key) -> np.random.Generator:
    """Generator seeded by an integer key path; identical keys give
    identical streams, distinct keys are statistically independent.
    Tuple segments flatten, so composite seeds like (base, level)
    thread through unchanged.  Sampling loops build a chunk's streams
    together with derived_rngs, which gives the same streams."""
    return np.random.default_rng(_key_words(key))


# numpy's SeedSequence (NEP 19 keeps it stable): pool size, hashmix
# and mix constants, all arithmetic wrapping uint32
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constant before and after each of count hashmix calls,
    as a (count + 1, 1) column."""
    h = [init]
    for _ in range(count):
        h.append(h[-1] * mult & 0xFFFFFFFF)
    return np.array(h, dtype=np.uint32)[:, None]


@functools.cache
def _mix_plan(L: int) -> tuple:
    """The key-independent part of SeedSequence's pool mixing for keys
    of L words: the hashmix constants of each step, in the order the
    steps use them, and the pool words each cross-mix source feeds."""
    h = _hash_consts(_INIT_A, _MULT_A, _POOL * (_POOL - 1)
                     + _POOL * max(L, _POOL))
    steps, j = [], _POOL
    for src in range(_POOL):
        dst = np.array([d for d in range(_POOL) if d != src])
        steps.append((src, dst, h[j:j + _POOL - 1], h[j + 1:j + _POOL]))
        j += _POOL - 1
    extra = []
    for src in range(_POOL, L):
        extra.append((src, h[j:j + _POOL], h[j + 1:j + _POOL + 1]))
        j += _POOL
    out = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    return (h[:_POOL], h[1:_POOL + 1]), steps, extra, (out[:-1], out[1:])


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mult
    return v ^ (v >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _seed_states(words: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, np.uint64) for every row of a
    (c, L) uint32 array, as a (c, 4) uint64 array: the pool fill, the
    cross-mix and the mixing of words past the pool run on all rows at
    once, one vector op per step."""
    L = words.shape[1]
    fill, steps, extra, out = _mix_plan(L)
    w = words.T
    pool = np.zeros((_POOL, len(words)), dtype=np.uint32)
    pool[:min(L, _POOL)] = w[:_POOL]
    pool = _hashmix(pool, *fill)
    for src, dst, xor, mult in steps:
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], xor, mult))
    for src, xor, mult in extra:
        pool = _mix(pool, _hashmix(w[src], xor, mult))
    state = _hashmix(np.concatenate([pool, pool]), *out)
    # words pair into uint64 little-endian first, as generate_state does
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(
        np.uint64)


@functools.cache
def _fixed_state_type() -> type:
    """A seed sequence whose PCG64 state words are already computed.
    Defined on first use: numpy loads numpy.random lazily, and importing
    the package must not load it."""

    class FixedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return FixedState


def _generators(words: np.ndarray) -> list:
    fixed = _fixed_state_type()
    return [np.random.Generator(np.random.PCG64(fixed(s)))
            for s in _seed_states(words)]


@functools.cache
def _vector_seeding_ok() -> bool:
    """Whether _generators matches np.random.default_rng on this numpy,
    checked once, on first use, on keys of 1, 3 and 8 words.  An error
    while building or comparing the generators (a numpy whose private
    seeding API moved) counts as a mismatch."""
    rows = ([[0], [0xFFFFFFFF]], [[7, 1, 2], [0, 0x80000000, 5]],
            [list(range(8)), [0xFFFFFFFF] * 8])
    try:
        for keys in rows:
            for key, rng in zip(keys,
                                _generators(np.array(keys, np.uint32))):
                if (rng.bit_generator.state
                        != np.random.default_rng(key).bit_generator.state):
                    return False
    except Exception:
        return False
    return True


def derived_rngs(prefix, ks) -> list:
    """[derived_rng(*prefix, k) for k in ks], the same streams bit for
    bit, built together: the SeedSequence mixing of all the keys runs as
    one vector pass and each PCG64 is seeded from its state words.  A
    numpy whose seeding the first-use self-check does not reproduce
    takes derived_rng one key at a time."""
    if not _vector_seeding_ok():
        return [derived_rng(*prefix, k) for k in ks]
    head = _key_words(prefix)
    words = np.empty((len(ks), len(head) + 1), dtype=np.uint32)
    words[:, :-1] = head
    words[:, -1] = [int(k) & 0xFFFFFFFF for k in ks]
    return _generators(words)


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return derived_rng(seed)


class HermTuple:
    """Tuple of n x n complex Hermitian matrices; the evaluation point."""

    __slots__ = ("entries", "n", "kind")

    def __init__(self, matrices, kind: str = "x", n: int | None = None):
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
            H = hermitian_stack(np.array(mats))
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
        copy.  On the slice extractor's DFT route the matrices are the
        complex multiples z X of ingested ones, and such tuples reach
        only evaluators declared analytic_in_z."""
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

    def scale(self, c: float) -> "HermTuple":
        c = complex(c)
        if c.imag != 0.0:
            raise ValueError("only real scaling preserves Hermiticity")
        return HermTuple([c.real * m for m in self.entries],
                         kind=self.kind, n=self.n)

    # -- domain operations ----------------------------------------------------

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
    """The direct sum M1 (+) M2, or, for stacks that share their leading
    axes (..., n, n), the direct sum of each pair of members."""
    lead = M1.shape[:-2]
    n1, n2 = M1.shape[len(lead)], M2.shape[len(lead)]
    out = np.zeros(lead + (n1 + n2, n1 + n2), dtype=complex)
    out[..., :n1, :n1] = M1
    out[..., n1:, n1:] = M2
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


def hermitian_stack(M: np.ndarray) -> np.ndarray:
    """The ingest of HermTuple, for one tuple of shape (g, n, n) or a
    stack of them (..., g, n, n): an entry further than
    HERMITIAN_INGEST_TOL from its adjoint is refused, naming its index
    in the tuple, and otherwise (M + M*)/2 is returned."""
    Mh = M.conj().swapaxes(-1, -2)
    diff = np.abs(M - Mh)
    # one whole-stack reduction when all is well; per entry, a NaN
    # deviation compares false against the tolerance and passes, as it
    # always has
    if diff.size and not diff.max() <= HERMITIAN_INGEST_TOL:
        dev = diff.max(axis=(-2, -1))
        over = np.flatnonzero(dev > HERMITIAN_INGEST_TOL)
        if over.size:
            bad = int(over[0])
            raise ValueError(f"entry {bad % M.shape[-3]} is not Hermitian: "
                             f"max deviation {float(dev.flat[bad]):.3e}")
    return (M + Mh) / 2


def draw_x_ball(g: int, n: int, epsilon: float, count: int, rng) -> list:
    """The raw numbers of sample_x_ball, in its order: per sample, the
    real and imaginary parts of g Ginibre matrices as one (g, 2, n, n)
    draw, then the radius.  Returns [(parts, radius)] per sample."""
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
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
    return _rescaled_points(np.array([z for z, _ in draws]),
                           np.array([r for _, r in draws]))[0]


def _rescaled_points(Z: np.ndarray, r: np.ndarray) -> tuple:
    """(X, zero) for a (c, g, 2, n, n) stack Z of raw Ginibre parts and
    c radii r: X holds the Hermitian parts, ingested, rescaled to tuple
    norm r and ingested again, and zero marks the tuples of g > 0
    entries whose norm is not positive; those stay unscaled."""
    H = hermitian_stack(_hermitian_from(_complex(Z)))
    if not Z.shape[1]:
        return H, np.zeros(len(H), dtype=bool)
    nx = stack_norms(_letters(H))
    pos = nx > 0
    X = hermitian_stack((r / np.where(pos, nx, 1.0))[:, None, None, None] * H)
    if not pos.all():
        X[~pos] = H[~pos]
    return X, ~pos


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
    """The n x n complex matrix of {"n": n, "entries": n rows of n
    [re, im] number pairs}; JSON of any other shape raises ShapeError.
    A JSON null or string is no number here, although numpy's float
    conversion would take null for NaN and "1" for 1.0."""
    if not isinstance(data, dict) or not {"n", "entries"} <= data.keys():
        raise ShapeError("matrix JSON must be an object with 'n' and "
                         "'entries'")
    try:
        n = operator.index(data["n"])   # no float or string is truncated
    except TypeError:
        raise ShapeError(f"matrix JSON 'n' must be an integer, "
                         f"got {data['n']!r}") from None
    try:
        m = np.array([[complex(re, im) for re, im in row]
                      for row in data["entries"]], dtype=complex)
    except (TypeError, ValueError, OverflowError):
        # a cell not a pair of numbers, or an int past the float range
        raise ShapeError("matrix JSON entries must be rows of [re, im] "
                         "number pairs") from None
    if m.shape != (n, n):
        raise ShapeError(f"matrix JSON declares n={n} but entries are "
                         f"{m.shape}")
    return m


def tuple_to_json(T) -> list:
    """A HermTuple, or a (g, n, n) array of its matrices, as JSON."""
    return [matrix_to_json(m) for m in T]


def tuple_from_json(data, kind: str = "x", n: int | None = None) -> HermTuple:
    """Accepts a list of per-matrix objects or a single matrix object."""
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, (list, tuple)):
        raise ShapeError("tuple JSON must be a list of matrix objects or "
                         "one matrix object")
    return HermTuple([matrix_from_json(d) for d in data], kind=kind, n=n)
