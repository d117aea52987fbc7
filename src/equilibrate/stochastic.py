"""Matrix-free stochastic equilibration.

Everything here touches the matrix only through apply / apply_transpose.
The key identity: for a fixed positive vector x and a random probe u with
iid unit-variance components, E (A X^{1/2} u)_i^2 equals row i of (A o A) x,
so squared products of the operator with scaled Gaussian probes estimate
exactly the quantities the element-access iteration needs. Each sweep blends
the running scaling estimate with the fresh one-sample estimate under a
decaying weight, and square roots are deferred to the end.
"""

from dataclasses import dataclass

import numpy as np

from equilibrate.errors import DegenerateProbe, DimensionMismatch
from equilibrate.matrix import DiagonalScaling


@dataclass(frozen=True)
class OmegaSchedule:
    """Blend weights for averaged stochastic updates.

    omega(k) interpolates linearly from 1/2 at the first sweep toward 1/nmv
    at the last, so early sweeps adapt quickly and late sweeps average noise
    away. All weights lie in (0, 1/2] and the sequence is nonincreasing; it
    decreases strictly once nmv is at least 3.
    """

    nmv: int

    def __post_init__(self):
        if self.nmv < 1:
            raise ValueError("nmv must be at least 1")

    def omega(self, k):
        if not 1 <= k <= self.nmv:
            raise ValueError("sweep index out of range")
        alpha = (k - 1) / self.nmv
        return (1.0 - alpha) * 0.5 + alpha * (1.0 / self.nmv)

    def __iter__(self):
        return (self.omega(k) for k in range(1, self.nmv + 1))


class ProbeSource:
    """Seeded stream of standard normal probe vectors.

    A thin wrapper over numpy's PCG64 generator. The consumption order is
    part of the contract: callers draw whole vectors in a fixed sequence, so
    equal seeds reproduce runs bit for bit.
    """

    def __init__(self, seed=0):
        seed = int(seed)
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.seed = seed
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def normal(self, size):
        return self._rng.standard_normal(size)

    def __repr__(self):
        return f"ProbeSource(seed={self.seed})"


def _as_probes(probes):
    if isinstance(probes, ProbeSource):
        return probes
    return ProbeSource(probes)


def _require_square_op(a):
    if a.nrows != a.ncols:
        raise DimensionMismatch("stochastic equilibration requires a square operator")


def _blend(state, sample, omega):
    return (1.0 - omega) * (state / state.sum()) + omega * (sample / sample.sum())


def _squared_or_raise(v, what):
    sq = v * v
    if sq.sum() == 0.0:
        raise DegenerateProbe(f"probe annihilated by the operator while updating {what}")
    return sq


def snbin(a, nmv, probes=0, on_iteration=None):
    """Stochastic two-sided 2-norm equilibration of a square operator.

    Runs exactly nmv sweeps; each costs one apply and one transpose apply.
    Internally tracks normalized row and column scaling estimates for the
    elementwise square and returns their reciprocal square roots, so the
    returned scaling targets unit row and column 2-norms of the signed
    operator. ``on_iteration(k, scaling)`` observes the estimate after each
    sweep.
    """
    _require_square_op(a)
    sched = OmegaSchedule(nmv)
    probes = _as_probes(probes)
    rho = np.ones(a.nrows)
    gamma = np.ones(a.ncols)
    for k in range(1, nmv + 1):
        omega = sched.omega(k)
        u = probes.normal(a.ncols)
        y = a.apply(u / np.sqrt(gamma))
        rho = _blend(rho, _squared_or_raise(y, "row scaling"), omega)
        v = probes.normal(a.nrows)
        z = a.apply_transpose(v / np.sqrt(rho))
        gamma = _blend(gamma, _squared_or_raise(z, "column scaling"), omega)
        if on_iteration is not None:
            on_iteration(k, DiagonalScaling(1.0 / np.sqrt(rho), 1.0 / np.sqrt(gamma)))
    return DiagonalScaling(1.0 / np.sqrt(rho), 1.0 / np.sqrt(gamma))


def ssbin(a, nmv, probes=0, no_switch=False, on_iteration=None):
    """Stochastic symmetric equilibration using only forward applies.

    Keeps two copies of the scaling estimate: probes are shaped by one copy
    while updates land in the other. For the first min(32, nmv // 2) sweeps
    the copies are kept identical, which adapts fastest; afterwards they
    swap roles each sweep, mirroring the two-sided method's alternation and
    letting the pair straddle any oscillation. The returned vector is the
    symmetric scaling (d * d_probe)^(-1/4). ``no_switch=True`` disables the
    swap phase entirely, which stalls on matrices whose pattern splits into
    disconnected blocks; it exists for comparison runs. ``on_iteration(k, x)``
    observes the current symmetric scaling vector.
    """
    _require_square_op(a)
    sched = OmegaSchedule(nmv)
    probes = _as_probes(probes)
    n = a.ncols
    d = np.ones(n)
    dp = d
    mirror_until = min(32, nmv // 2)
    for k in range(1, nmv + 1):
        u = probes.normal(n)
        y = a.apply(u / np.sqrt(dp))
        omega = sched.omega(k)
        d = _blend(d, _squared_or_raise(y, "symmetric scaling"), omega)
        if no_switch or k < mirror_until:
            dp = d
        else:
            d, dp = dp, d
        if on_iteration is not None:
            on_iteration(k, (d * dp) ** -0.25)
    return (d * dp) ** -0.25


def estimate_bx(a, x, nsamples, probes=0):
    """Monte Carlo estimate of (A o A) x without element access.

    Averages (A X^{1/2} u)^2 over nsamples standard normal probes u. The
    estimate is unbiased; componentwise its standard error is
    sqrt(2 / nsamples) times the true value.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (a.ncols,):
        raise DimensionMismatch("x must match the operator's column count")
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("x must be positive and finite")
    if nsamples < 1:
        raise ValueError("nsamples must be at least 1")
    probes = _as_probes(probes)
    sx = np.sqrt(x)
    acc = np.zeros(a.nrows)
    for _ in range(nsamples):
        y = a.apply(sx * probes.normal(a.ncols))
        acc += y * y
    return acc / nsamples
