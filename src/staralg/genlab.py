"""Seeded, reproducible generators for star pairs, generalized projections,
idempotents, and solvability instances.

All randomness flows through SplitMix64, a fixed 64-bit generator with
substreams keyed by ``(root, stream)``: the stream state is the SplitMix64
finalizer applied to the root, advanced by ``stream`` times the golden-ratio
increment, and finalized again.  Uniform doubles are ``((z >> 11) + 1) * 2**-53``
and normal deviates come from Box-Muller applied to consecutive uniform
pairs, so identical seeds reproduce identical matrices bit for bit on one
platform (across platforms, up to the last-ulp behavior of libm's
log/cos/sin).

Generators are pure functions of (dimensions, Seed); batch generation over
stream indices shares no state.  The ``gen_*`` functions validate their
arguments and draw from a fresh stream; the builders they wrap (``unitary``,
``rank_r``, ``star_pair``, ...) take a caller's SplitMix64 and trusted
arguments, so one trial can chain several draws from one stream.

Rank-r matrices and star pairs are drawn in SVD form, U diag(s) V* with Haar
unitaries U and V (QR of a complex Gaussian) and values s stratified across
[0.5, 2]; a star pair small <=* big shares U and V and keeps r of big's
values, so it costs two QRs (one when Hermitian).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, PreconditionError
from .matcore import adj, factor, meet_projector, range_projectors, square

__all__ = ["PRNG_NAME", "Seed", "SplitMix64", "gen_rank_r", "gen_star_pair", "gen_gp",
           "gen_idempotent", "gen_thm23_instance"]

PRNG_NAME = "splitmix64"

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_ROOT_SALT = 0x243F6A8885A308D3  # first 64 fractional bits of pi
_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # primitive cube root of unity


@dataclass(frozen=True)
class Seed:
    """PRNG key: a 64-bit root plus a 64-bit substream (trial) index."""

    root: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name, value in (("root", self.root), ("stream", self.stream)):
            if not 0 <= value <= _MASK:
                raise PreconditionError(f"{name} must be a 64-bit unsigned integer")


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """SplitMix64 stream keyed by a Seed.

    Output words are the finalizer applied to an arithmetic progression of
    states, which allows bit-exact vectorized generation.
    """

    def __init__(self, seed: Seed):
        root = _mix_array(np.array([seed.root ^ _ROOT_SALT], dtype=np.uint64))
        stream = np.array([seed.stream], dtype=np.uint64)
        self._state = int(_mix_array(root + stream * np.uint64(_GAMMA))[0])

    def u64(self, n: int) -> np.ndarray:
        ks = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK
        return _mix_array(ks)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]."""
        return ((self.u64(n) >> np.uint64(11)) + np.uint64(1)) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard normal deviates via Box-Muller."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        radius = np.sqrt(-2.0 * np.log(u[:pairs]))
        angle = 2.0 * np.pi * u[pairs:]
        out = np.empty(2 * pairs)
        out[0::2] = radius * np.cos(angle)
        out[1::2] = radius * np.sin(angle)
        return out[:n]

    def complex_gaussian(self, rows: int, cols: int) -> np.ndarray:
        z = self.normals(2 * rows * cols)
        return (z[0::2] + 1j * z[1::2]).reshape(rows, cols)

    def hermitian_gaussian(self, n: int) -> np.ndarray:
        g = self.complex_gaussian(n, n)
        return (g + adj(g)) / 2.0

    def randint(self, bound: int) -> int:
        """One integer uniform-ish on [0, bound)."""
        if bound < 1:
            raise PreconditionError(f"bound must be >= 1, got {bound}")
        return int(self.u64(1)[0] % np.uint64(bound))

    def bits(self, n: int) -> np.ndarray:
        """n independent booleans."""
        return (self.u64(n) & np.uint64(1)).astype(bool)


def unitary(rng: SplitMix64, n: int) -> np.ndarray:
    """Haar-like unitary: QR of a complex Gaussian with phase-fixed diagonal."""
    g = rng.complex_gaussian(n, n)
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    phase = np.where(np.abs(d) > 0, d / np.where(np.abs(d) > 0, np.abs(d), 1.0), 1.0)
    return q * phase


def _spread_values(rng: SplitMix64, r: int) -> np.ndarray:
    """r values stratified across [0.5, 2] with guaranteed pairwise gaps."""
    u = rng.uniforms(r)
    return 0.5 + 1.5 * (np.arange(r) + 0.1 + 0.8 * u) / r


def rank_r(rng: SplitMix64, m: int, n: int, r: int) -> np.ndarray:
    if r == 0:
        return np.zeros((m, n), dtype=np.complex128)
    u = unitary(rng, m)
    v = unitary(rng, n)
    s = _spread_values(rng, r)
    return (u[:, :r] * s) @ adj(v[:, :r])


def star_pair(
    rng: SplitMix64, n: int, r: int, k: int, hermitian: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(big, small) = (U diag(s, 0) V*, U diag(s[:r], 0) V*) with s of length r + k.

    This is the simultaneous SVD that every pair small <=* big has
    (Hartwig & Drazin 1978).  Drawing U and V Haar gives the same distribution
    as conjugating each block by further Haar unitaries would, since
    U blockdiag(U1, U2, I) is Haar when U is.  With ``hermitian`` V = U and
    each value gets a random sign, so s holds the eigenvalues.
    """
    u = unitary(rng, n)
    v = u if hermitian else unitary(rng, n)
    s = np.concatenate([_spread_values(rng, r), _spread_values(rng, k)])
    if hermitian:
        s *= np.where(rng.bits(r + k), 1.0, -1.0)
    big = (u[:, : r + k] * s) @ adj(v[:, : r + k])
    small = (u[:, :r] * s[:r]) @ adj(v[:, :r])
    return big, small


def gp(
    rng: SplitMix64, n: int, multiplicities: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Generalized projection and its unitary eigenbasis, eigenvalue-1 columns first."""
    m1, mw, mw2 = multiplicities
    u = unitary(rng, n)
    d = np.zeros(n, dtype=np.complex128)
    d[:m1] = 1.0
    d[m1 : m1 + mw] = _OMEGA
    d[m1 + mw : m1 + mw + mw2] = _OMEGA**2
    return (u * d) @ adj(u), u


def idempotent(rng: SplitMix64, n: int, r: int, skew: float) -> np.ndarray:
    d = np.zeros((n, n), dtype=np.complex128)
    d[:r, :r] = np.eye(r)
    if skew == 0.0:
        q = unitary(rng, n)
        return q @ d @ adj(q)
    for _ in range(10):
        basis = np.eye(n, dtype=np.complex128) + skew * rng.complex_gaussian(n, n)
        s = factor(basis).s  # condition number s[0] / s[-1] at most 1e8
        if s[0] <= 1e8 * s[-1]:
            return basis @ d @ np.linalg.inv(basis)
    raise NumericError("could not draw a well-conditioned similarity in 10 attempts")


def thm23_instance(rng: SplitMix64, meet: np.ndarray, positive: bool) -> np.ndarray:
    n = meet.shape[0]
    b = meet @ rng.hermitian_gaussian(n) @ meet
    if positive:
        return b
    p_out = np.eye(n, dtype=np.complex128) - meet
    # a nonzero orthogonal projector has Frobenius norm >= 1
    if np.linalg.norm(p_out) < 0.5:
        raise PreconditionError(
            "a is invertible: the solvability criterion cannot be broken"
        )
    e = p_out @ rng.complex_gaussian(n, n) @ p_out
    return b + 0.1 * (e + adj(e))


def gen_rank_r(m: int, n: int, r: int, seed: Seed) -> np.ndarray:
    """Seeded m x n matrix of exact rank r with singular values in [0.5, 2]."""
    if m < 1 or n < 1:
        raise PreconditionError(f"dimensions must be >= 1, got {m}x{n}")
    if not 0 <= r <= min(m, n):
        raise PreconditionError(f"rank must satisfy 0 <= r <= {min(m, n)}, got {r}")
    return rank_r(SplitMix64(seed), m, n, r)


def gen_star_pair(
    n: int, r: int, k: int, seed: Seed, hermitian: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded pair (big, small) with small <=* big, drawn in SVD form.

    big = U diag(s, 0) V* has rank r + k and small = U diag(s[:r], 0) V* rank
    r: the two share their singular vectors, and small keeps r of big's r + k
    singular values, all in [0.5, 2].  Haar U and V make any further
    unitary inside the blocks redundant.  With ``hermitian=True`` V = U and
    the values carry random signs, so both outputs are Hermitian.
    """
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    if r < 0 or k < 0 or r + k > n:
        raise PreconditionError(f"need r, k >= 0 and r + k <= n, got r={r}, k={k}, n={n}")
    return star_pair(SplitMix64(seed), n, r, k, hermitian)


def gen_gp(n: int, multiplicities: tuple[int, int, int], seed: Seed) -> np.ndarray:
    """Seeded generalized projection with the given eigenvalue multiplicities.

    The spectrum consists of the three cube roots of unity with the requested
    multiplicities, padded by zeros, in a seeded unitary eigenbasis.
    """
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    m1, mw, mw2 = multiplicities
    if min(m1, mw, mw2) < 0 or m1 + mw + mw2 > n:
        raise PreconditionError(
            f"multiplicities must be nonnegative with sum <= {n}, got {multiplicities}"
        )
    return gp(SplitMix64(seed), n, (m1, mw, mw2))[0]


def gen_idempotent(n: int, r: int, skew: float, seed: Seed) -> np.ndarray:
    """Seeded rank-r idempotent; skew > 0 tilts it away from Hermitian.

    Built as S [I_r, 0; 0, 0] S^-1 with S = I + skew * G; draws are retried
    while the similarity is ill-conditioned (estimate above 1e8), failing
    after 10 attempts.
    """
    if n < 1:
        raise PreconditionError(f"n must be >= 1, got {n}")
    if not 0 <= r <= n:
        raise PreconditionError(f"rank must satisfy 0 <= r <= {n}, got {r}")
    if skew < 0:
        raise PreconditionError(f"skew must be >= 0, got {skew}")
    return idempotent(SplitMix64(seed), n, r, skew)


def gen_thm23_instance(a, positive: bool, seed: Seed) -> np.ndarray:
    """Seeded self-adjoint instance for the system solvability criterion.

    Positive instances compress a Hermitian Gaussian into
    range(a) & range(a*), so (a a+) b (a+ a) = b holds.  Negative instances
    add a 0.1-scaled Hermitian component supported on the orthogonal
    complement of that meet, which is guaranteed to break the criterion;
    requesting a negative for invertible a is an error.

    Two generic subspaces of dimension r meet only in {0} when 2r <= n, so
    for a generic a of rank at most n/2 the meet is zero and every positive
    instance is exactly b = 0; a non-trivial positive needs rank(a) > n/2.
    """
    am = square(a, "a")
    meet = meet_projector(*range_projectors(am))
    return thm23_instance(SplitMix64(seed), meet, positive)
