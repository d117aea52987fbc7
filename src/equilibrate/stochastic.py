"""Matrix-free stochastic equilibration.

Everything here touches the matrix only through apply / apply_transpose.
The key identity: for a fixed positive vector x and a random probe u with
iid unit-variance components, E (A X^{1/2} u)_i^2 equals row i of (A o A) x,
so squared products of the operator with scaled Gaussian probes estimate
exactly the quantities the element-access iteration needs. Each sweep blends
the running scaling estimate with the fresh one-sample estimate under a
decaying weight, and square roots are deferred to the end.

Probes do not depend on the iterate, so for large operators a background
thread draws the probe vectors in batches, the next batch while the current
products and blends run. Operator callables and ``on_iteration`` always run
on the caller's thread, and the probe stream is consumed in the same order
as without the thread, so equal seeds still give bitwise-equal results.

Every sweep of either method is one call of `_update`, the paper's
averaged update. It scales its probe and blends its squared sample in
place, in arrays it allocated itself; see its docstring for what it must
not write into.
"""

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from equilibrate.errors import DegenerateProbe, DimensionMismatch, integral
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
        if integral("nmv", self.nmv) < 1:
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
    equal seeds reproduce runs bit for bit. A source passed to `ssbin`,
    `snbin` or `estimate_bx` belongs to that call until it returns: the call
    may draw its probes on a background thread, so nothing else may
    draw from the source meanwhile, neither another thread nor the
    operator callables or ``on_iteration`` on the caller's own thread.
    When the call returns or raises, the source is left exactly where
    drawing in sequence would leave it.
    """

    def __init__(self, seed=0):
        seed = integral("seed", seed)
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


# Draws of fewer elements than this stay on the caller's thread, on the
# sequential path. For small matrices a call's probes fit in one or two
# batches (128 probes of n = 640 fill two), so the caller would wait for the
# first batch and pay for a thread with nothing to overlap; and `run` keeps
# a second thread busy with condition numbers at the sizes it can densify.
# Drawing every size ahead made batch_run slower in alternating pairs, and
# 128-probe snbin at n = 640 slower on its own; where between 2^11 and 2^14
# elements a lower floor would start to pay is unmeasured (ROADMAP, "Probe
# draws run ahead"). Above the floor, the worker draws about
# _BATCH_ELEMENTS elements per handoff; drawing one vector per handoff made
# the caller wait on the worker, or on the interpreter lock it holds, often
# enough to lose on a busy host. See benchmarks/probe_draws.py and
# BENCH_probe_draws.json.
_AHEAD_FLOOR = 1 << 14
_BATCH_ELEMENTS = 1 << 16


@contextmanager
def _draws(probes, sizes):
    """``draw()`` returns ``probes.normal(size)`` for each of ``sizes`` in turn.

    When every size reaches `_AHEAD_FLOOR`, the vectors come in batches,
    all drawn by a worker thread: the caller takes a batch, asks for the
    next one and hands out the vectors of the one it took. A batch is one
    ``probes.normal`` call split into vectors, which consumes the stream
    exactly as separate calls would. The body draws every size unless it
    raises; then the draw in flight is waited for and the generator is put
    back where drawing in sequence would have left it.
    """
    if min(sizes, default=0) < _AHEAD_FLOOR:
        yield map(probes.normal, sizes).__next__
        return
    per = max(1, _BATCH_ELEMENTS // max(sizes))
    batches = [sizes[i : i + per] for i in range(0, len(sizes), per)]
    bitgen = probes._rng.bit_generator
    # The generator state before the batch in hand, and the elements handed
    # out of it: all that an early exit needs to put the generator back.
    start, used = bitgen.state, 0

    def fetch(batch):
        state = bitgen.state
        return state, np.split(probes.normal(sum(batch)), np.cumsum(batch[:-1]))

    def vectors():
        nonlocal start, used
        ahead = worker.submit(fetch, batches[0])
        for following in [*batches[1:], None]:
            start, batch = ahead.result()
            used = 0
            if following is not None:
                ahead = worker.submit(fetch, following)
            for vector in batch:
                used += vector.size
                yield vector

    try:
        with ThreadPoolExecutor(max_workers=1) as worker:  # leaving waits for the draw in flight
            yield vectors().__next__
    except BaseException:
        bitgen.state = start
        probes.normal(used)
        raise


def _require_square_op(a):
    if a.nrows != a.ncols:
        raise DimensionMismatch("stochastic equilibration requires a square operator")


def _update(state, draw, weights, apply, omega, what):
    """One averaged update: (1 - omega) * state / Σ state + omega * y² / Σ y².

    y is ``apply`` of a fresh probe divided by sqrt(``weights``). The result
    is computed in y²'s own array. Only the drawn probe and y² are written
    into: never ``state`` or ``weights``, which ``ssbin``'s two copies share
    while they mirror each other, nor the vector ``apply`` returned. A zero
    Σ y² raises `DegenerateProbe`, whose message names ``what``.
    """
    u = draw()
    u /= np.sqrt(weights)
    y = apply(u)
    sample = y * y
    total = sample.sum()
    if total == 0.0:
        raise DegenerateProbe(f"probe annihilated by the operator while updating {what}")
    prior = state / state.sum()
    prior *= 1.0 - omega
    sample /= total
    sample *= omega
    return np.add(prior, sample, out=sample)


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
    with _draws(probes, [a.ncols, a.nrows] * nmv) as draw:
        for k in range(1, nmv + 1):
            omega = sched.omega(k)
            rho = _update(rho, draw, gamma, a.apply, omega, "row scaling")
            gamma = _update(gamma, draw, rho, a.apply_transpose, omega, "column scaling")
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
    with _draws(probes, [n] * nmv) as draw:
        for k in range(1, nmv + 1):
            d = _update(d, draw, dp, a.apply, sched.omega(k), "symmetric scaling")
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
    if integral("nsamples", nsamples) < 1:
        raise ValueError("nsamples must be at least 1")
    probes = _as_probes(probes)
    sx = np.sqrt(x)
    acc = np.zeros(a.nrows)
    with _draws(probes, [a.ncols] * nsamples) as draw:
        for _ in range(nsamples):
            u = draw()
            u *= sx
            y = a.apply(u)
            acc += y * y
    return acc / nsamples
