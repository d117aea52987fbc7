import sys
import threading

import numpy as np
import pytest

from equilibrate import stochastic
from equilibrate.corpus import CorpusSpec, generate
from equilibrate.diagnostics import ratio
from equilibrate.errors import DegenerateProbe, DimensionMismatch
from equilibrate.exact import ExactOptions, equilibrate_2norm
from equilibrate.matrix import (
    DiagonalScaling,
    LinearOperator,
    SparseMatrix,
    from_sparse,
    scale,
)
from equilibrate.stochastic import (
    OmegaSchedule,
    ProbeSource,
    estimate_bx,
    snbin,
    ssbin,
)

from conftest import CountingOperator


def _ident(n):
    return SparseMatrix.from_dense(np.eye(n))


def _sym_ratio(m, x):
    return ratio(scale(m, DiagonalScaling.symmetric(x)))


# ---------------------------------------------------------------- schedule


def test_schedule_first_weight_is_half():
    for nmv in (1, 2, 3, 10, 128):
        assert OmegaSchedule(nmv).omega(1) == 0.5


def test_schedule_last_weight_approaches_reciprocal_budget():
    sched = OmegaSchedule(100)
    assert sched.omega(100) == pytest.approx(0.5 / 100 + 99 / 100**2, rel=1e-12)


def test_schedule_weights_bounded_and_nonincreasing():
    for nmv in (1, 2, 3, 7, 64, 128):
        weights = list(OmegaSchedule(nmv))
        assert len(weights) == nmv
        assert all(0.0 < w <= 0.5 for w in weights)
        assert all(a >= b for a, b in zip(weights, weights[1:]))


def test_schedule_strictly_decreasing_from_three_sweeps():
    # With one or two sweeps the interpolation endpoints coincide, so the
    # weights repeat; from three sweeps on they drop strictly.
    assert list(OmegaSchedule(2)) == [0.5, 0.5]
    for nmv in (3, 4, 50):
        weights = list(OmegaSchedule(nmv))
        assert all(a > b for a, b in zip(weights, weights[1:]))


def test_schedule_validation():
    with pytest.raises(ValueError):
        OmegaSchedule(0)
    with pytest.raises(ValueError, match=r"^nmv must be integral, got 2\.5$"):
        OmegaSchedule(2.5)
    assert list(OmegaSchedule(np.int64(2))) == [0.5, 0.5]
    a = from_sparse(SparseMatrix.from_dense(np.eye(3)))
    for method in (snbin, ssbin):
        with pytest.raises(ValueError, match=r"^nmv must be integral, got 2\.5$"):
            method(a, 2.5)
    sched = OmegaSchedule(5)
    with pytest.raises(ValueError):
        sched.omega(0)
    with pytest.raises(ValueError):
        sched.omega(6)


# ------------------------------------------------------------ probe source


def test_probe_source_is_deterministic_per_seed():
    a, b = ProbeSource(7), ProbeSource(7)
    np.testing.assert_array_equal(a.normal(5), b.normal(5))
    np.testing.assert_array_equal(a.normal(3), b.normal(3))
    c = ProbeSource(8)
    assert not np.array_equal(ProbeSource(7).normal(5), c.normal(5))


def test_probe_source_validation():
    with pytest.raises(ValueError):
        ProbeSource(-1)
    with pytest.raises(ValueError, match="seed must be integral"):
        ProbeSource(1.7)
    assert ProbeSource(np.int64(3)).seed == 3
    assert "seed=3" in repr(ProbeSource(3))


# ------------------------------------------------------- budget accounting


def test_ssbin_costs_exactly_nmv_forward_applies(rng):
    m = SparseMatrix.from_dense(np.abs(rng.standard_normal((8, 8))) + np.eye(8))
    sym = SparseMatrix.from_dense(m.to_dense() + m.to_dense().T)
    for nmv in (1, 2, 5, 33, 128):
        guard = CountingOperator(sym)
        ssbin(guard, nmv, probes=0)
        assert guard.applies == nmv
        assert guard.transpose_applies == 0


def test_snbin_costs_exactly_nmv_of_each_apply(rng):
    m = SparseMatrix.from_dense(rng.standard_normal((6, 6)))
    for nmv in (1, 3, 64):
        guard = CountingOperator(m)
        snbin(guard, nmv, probes=0)
        assert guard.applies == nmv
        assert guard.transpose_applies == nmv


def test_estimate_bx_costs_exactly_nsamples_applies(rng):
    guard = CountingOperator(SparseMatrix.from_dense(rng.standard_normal((5, 5))))
    estimate_bx(guard, np.ones(5), 17, probes=0)
    assert guard.applies == 17
    assert guard.transpose_applies == 0


def test_rectangular_operator_rejected():
    op = LinearOperator(2, 3, lambda v: v[:2], lambda v: np.resize(v, 3))
    with pytest.raises(DimensionMismatch):
        ssbin(op, 4)
    with pytest.raises(DimensionMismatch):
        snbin(op, 4)


# ------------------------------------------------------------- iterates


def test_iterates_stay_positive_and_finite(rng):
    dense = rng.standard_normal((10, 10))
    sym = SparseMatrix.from_dense(dense + dense.T + 10 * np.eye(10))
    seen = []

    def watch(k, x):
        assert np.all(np.isfinite(x)) and np.all(x > 0)
        seen.append(k)

    ssbin(from_sparse(sym), 40, probes=3, on_iteration=watch)
    assert seen == list(range(1, 41))

    seen.clear()

    def watch2(k, s):
        assert np.all(np.isfinite(s.left)) and np.all(s.left > 0)
        assert np.all(np.isfinite(s.right)) and np.all(s.right > 0)
        seen.append(k)

    gen = SparseMatrix.from_dense(rng.standard_normal((10, 10)))
    result = snbin(from_sparse(gen), 40, probes=3, on_iteration=watch2)
    assert seen == list(range(1, 41))
    assert np.all(result.left > 0) and np.all(result.right > 0)


def test_single_sweep_runs_and_is_deterministic(rng):
    sym = SparseMatrix.from_dense(np.diag([1.0, 9.0, 4.0]))
    x1 = ssbin(from_sparse(sym), 1, probes=5)
    x2 = ssbin(from_sparse(sym), 1, probes=5)
    np.testing.assert_array_equal(x1, x2)
    s1 = snbin(from_sparse(sym), 1, probes=5)
    s2 = snbin(from_sparse(sym), 1, probes=5)
    np.testing.assert_array_equal(s1.left, s2.left)
    np.testing.assert_array_equal(s1.right, s2.right)


def test_equal_seeds_reproduce_bitwise(rng):
    dense = rng.standard_normal((12, 12))
    sym = SparseMatrix.from_dense(dense + dense.T)
    a = ssbin(from_sparse(sym), 50, probes=9)
    b = ssbin(from_sparse(sym), 50, probes=ProbeSource(9))
    np.testing.assert_array_equal(a, b)


def test_uniform_operator_scale_drops_out_bitwise(rng):
    # Both methods renormalize the running estimates every sweep, so
    # multiplying the whole operator by a constant must not change the
    # result at all. A power of two makes the algebra exact in floats.
    dense = rng.standard_normal((9, 9))
    sym = SparseMatrix.from_dense(dense + dense.T)
    sym4 = SparseMatrix.from_coo(9, 9, sym.rows, sym.indices, sym.data * 4.0)
    np.testing.assert_array_equal(
        ssbin(from_sparse(sym), 30, probes=2), ssbin(from_sparse(sym4), 30, probes=2)
    )
    gen = SparseMatrix.from_dense(rng.standard_normal((9, 9)))
    gen4 = SparseMatrix.from_coo(9, 9, gen.rows, gen.indices, gen.data * 4.0)
    s, s4 = snbin(from_sparse(gen), 30, probes=2), snbin(from_sparse(gen4), 30, probes=2)
    np.testing.assert_array_equal(s.left, s4.left)
    np.testing.assert_array_equal(s.right, s4.right)


def test_degenerate_probe_raises():
    zero_op = LinearOperator(3, 3, lambda v: np.zeros(3), lambda v: np.zeros(3))
    with pytest.raises(DegenerateProbe):
        ssbin(zero_op, 4)
    with pytest.raises(DegenerateProbe):
        snbin(zero_op, 4)


# ------------------------------------------------------ draws run ahead
#
# From `_AHEAD_FLOOR` elements on, probes come in batches of about
# `_BATCH_ELEMENTS` elements, every one drawn on a worker thread.
# These tests pin what that must not change: the order in which the probe
# stream is consumed, where the source is left after an early exit, which
# thread runs the caller's code, and that no thread outlives a call.

_BIG = stochastic._AHEAD_FLOOR + 1
_PER_BATCH = stochastic._BATCH_ELEMENTS // _BIG


def _diag_op(n, zero_from=None):
    """Diagonal operator on n elements whose products turn to zeros from
    the ``zero_from``-th call on, counting apply and apply_transpose
    together, and which records the thread of every call."""
    diag = np.linspace(1.0, 2.0, n)
    threads = []

    def product(v):
        threads.append(threading.get_ident())
        if zero_from is not None and len(threads) >= zero_from:
            return np.zeros(n)
        return diag * v

    return LinearOperator(n, n, product, product), threads


def _advanced(seed, draws, n):
    source = ProbeSource(seed)
    for _ in range(draws):
        source.normal(n)
    return source


@pytest.mark.parametrize(
    "zero_from", [1, 3, _PER_BATCH, _PER_BATCH + 1, 3 * _PER_BATCH + 2]
)
@pytest.mark.parametrize("method", ["ssbin", "snbin"])
def test_degenerate_probe_leaves_source_where_sequential_draws_would(method, zero_from):
    # Both methods draw one probe per product, just before it, so the
    # sequential code has consumed exactly ``zero_from`` draws when the
    # product that annihilates its probe raises: in the first batch, at its
    # last vector, at the first vector of the next one, and inside the
    # fourth.
    op, _ = _diag_op(_BIG, zero_from)
    source = ProbeSource(5)
    with pytest.raises(DegenerateProbe):
        getattr(stochastic, method)(op, 4 * _PER_BATCH, source)
    np.testing.assert_array_equal(source.normal(_BIG), _advanced(5, zero_from, _BIG).normal(_BIG))


def test_drawing_ahead_gives_the_sequential_results_and_source_state(monkeypatch):
    op, _ = _diag_op(_BIG)
    x = np.linspace(0.5, 1.5, _BIG)

    def run():
        sources = [ProbeSource(3) for _ in range(3)]
        nmv = 4 * _PER_BATCH
        s = snbin(op, nmv, sources[1])
        out = [ssbin(op, nmv, sources[0]), s.left, s.right, estimate_bx(op, x, nmv, sources[2])]
        return out, [source.normal(4) for source in sources]

    ahead = run()
    monkeypatch.setattr(stochastic, "_AHEAD_FLOOR", _BIG + 1)
    inline = run()
    for a, b in zip(ahead[0] + ahead[1], inline[0] + inline[1]):
        np.testing.assert_array_equal(a, b)


def test_no_thread_outlives_a_call():
    before = threading.active_count()
    op, _ = _diag_op(_BIG)
    nmv = 3 * _PER_BATCH
    ssbin(op, nmv, ProbeSource(1))
    snbin(op, nmv, ProbeSource(1))
    estimate_bx(op, np.ones(_BIG), nmv, ProbeSource(1))
    assert threading.active_count() == before

    stop_at = _PER_BATCH + 2

    def stop(k, scaling):
        if k == stop_at:
            raise KeyError("stop")

    for method, per_sweep in ((ssbin, 1), (snbin, 2)):
        source = ProbeSource(1)
        with pytest.raises(KeyError):
            method(op, nmv, source, on_iteration=stop)
        assert threading.active_count() == before
        # The sweeps up to stop_at ran to the end and have drawn their probes.
        drawn = per_sweep * stop_at
        np.testing.assert_array_equal(source.normal(3), _advanced(1, drawn, _BIG).normal(3))


def test_concurrent_calls_with_a_short_switch_interval_match_the_inline_path(monkeypatch):
    # Four callers on two cores, each with its own source and worker, while
    # the interpreter switches threads as often as it can: every result
    # must equal the one drawn in sequence.
    op, _ = _diag_op(_BIG)
    nmv = 3 * _PER_BATCH
    monkeypatch.setattr(stochastic, "_AHEAD_FLOOR", _BIG + 1)
    expected = [ssbin(op, nmv, ProbeSource(seed)) for seed in range(4)]
    monkeypatch.undo()
    got = [None] * 4

    def call(seed):
        got[seed] = ssbin(op, nmv, ProbeSource(seed))

    callers = [threading.Thread(target=call, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


def test_products_and_observers_run_on_the_callers_thread():
    here = threading.get_ident()
    op, threads = _diag_op(_BIG)
    seen = []
    nmv = 3 * _PER_BATCH
    ssbin(op, nmv, ProbeSource(2), on_iteration=lambda k, x: seen.append(threading.get_ident()))
    snbin(op, nmv, ProbeSource(2), on_iteration=lambda k, s: seen.append(threading.get_ident()))
    estimate_bx(op, np.ones(_BIG), nmv, ProbeSource(2))
    assert len(threads) == 4 * nmv and set(threads) == {here}
    assert len(seen) == 2 * nmv and set(seen) == {here}


class _CountingSource(ProbeSource):
    """A probe source that counts the elements drawn from it."""

    elements = 0

    def normal(self, size):
        self.elements += size
        return super().normal(size)


@pytest.mark.parametrize("n", [50, _BIG])
def test_a_normal_return_draws_exactly_the_probes_used(n):
    # Only an early exit may draw again, to put the source back.
    op, _ = _diag_op(n)
    nmv = 3 * _PER_BATCH + 1  # a short last batch
    sources = [_CountingSource(1) for _ in range(3)]
    ssbin(op, nmv, sources[0])
    snbin(op, nmv, sources[1])
    estimate_bx(op, np.ones(n), nmv, sources[2])
    assert [source.elements for source in sources] == [nmv * n, 2 * nmv * n, nmv * n]


# ------------------------------------------------- sweeps update in place
#
# A sweep scales its probe and blends its squared sample in arrays it
# allocated itself. Nothing it hands out or receives may change after the
# fact: not a product an operator returned (which the operator may reuse or
# which may be the operator's own input) and not an observed estimate.


@pytest.mark.parametrize("n", [50, _BIG])
@pytest.mark.parametrize("method", ["ssbin", "snbin"])
def test_sweeps_write_into_no_array_the_caller_can_see(method, n):
    diag = np.linspace(1.0, 2.0, n)
    buffers, last = {}, {}  # each kept buffer, and what it held when returned
    returned, observed = [], []  # (array, its contents when handed over)

    def into_buffer(name):
        buffers[name] = np.empty(n)

        def product(v):
            np.multiply(diag, v, out=buffers[name])
            last[name] = buffers[name].copy()
            return buffers[name]

        return product

    def same_vector(v):
        returned.append((v, v.copy()))
        return v

    def observe(k, x):
        for a in (x.left, x.right) if isinstance(x, DiagonalScaling) else (x,):
            observed.append((a, a.copy()))

    def bits(apply, apply_transpose, on_iteration=None):
        op = LinearOperator(n, n, apply, apply_transpose)
        out = getattr(stochastic, method)(op, 8, ProbeSource(4), on_iteration=on_iteration)
        return [out.tobytes()] if method == "ssbin" else [out.left.tobytes(), out.right.tobytes()]

    copying = bits(lambda v: diag * v, lambda v: diag * v)
    assert bits(into_buffer("apply"), into_buffer("apply_transpose"), observe) == copying
    assert bits(same_vector, same_vector, observe) == bits(np.copy, np.copy)
    assert returned and len(observed) >= 16
    for name, buffer in buffers.items():
        np.testing.assert_array_equal(buffer, last.get(name, buffer))
    for a, contents in returned + observed:
        np.testing.assert_array_equal(a, contents)


def test_below_the_floor_no_thread_starts(monkeypatch):
    started = []
    original = threading.Thread.start

    def start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    # Enough sweeps for several batches, had the floor let them run ahead.
    nmv = 4 * _PER_BATCH
    n = stochastic._AHEAD_FLOOR - 1
    op, _ = _diag_op(n)
    ssbin(op, nmv, ProbeSource(1))
    snbin(op, nmv, ProbeSource(1))
    estimate_bx(op, np.ones(n), nmv, ProbeSource(1))
    assert started == []
    # Above the floor the same patch sees the one worker of a call.
    ssbin(_diag_op(_BIG)[0], nmv, ProbeSource(1))
    assert len(started) == 1


# ---------------------------------------------------------------- quality
#
# A one-sample estimate of each row norm carries relative standard deviation
# sqrt(2) however large the matrix, and the averaging schedule caps the
# effective sample count at the sweep budget. The noise floor of the final
# max/min ratio on an already equilibrated matrix is therefore well above 1
# even at generous budgets; the thresholds below sit a little over the worst
# case measured across the ten frozen seeds, and a separate test checks the
# floor sinks as the budget grows.


def test_ssbin_identity_stays_near_equilibrated():
    ident = _ident(4)
    op = from_sparse(ident)
    ratios = [_sym_ratio(ident, ssbin(op, 128, probes=seed)) for seed in range(10)]
    assert max(ratios) < 1.45
    assert np.median(ratios) < 1.3


def test_ssbin_mildly_unbalanced_diagonal():
    m = SparseMatrix.from_dense(np.diag([1.0, 4.0]))
    op = from_sparse(m)
    ratios = [_sym_ratio(m, ssbin(op, 128, probes=seed)) for seed in range(10)]
    assert max(ratios) < 1.85
    assert np.median(ratios) < 1.6


def test_snbin_identity_stays_near_equilibrated():
    ident = _ident(4)
    op = from_sparse(ident)
    ratios = [
        ratio(scale(ident, snbin(op, 128, probes=seed))) for seed in range(10)
    ]
    assert max(ratios) < 1.65
    assert np.median(ratios) < 1.35


def test_noise_floor_shrinks_with_budget():
    ident = _ident(4)
    op = from_sparse(ident)
    medians = []
    for nmv in (8, 32, 128, 512):
        ratios = [_sym_ratio(ident, ssbin(op, nmv, probes=seed)) for seed in range(20)]
        medians.append(float(np.median(ratios)))
    assert medians == sorted(medians, reverse=True)
    assert medians[-1] < 1.2


def test_ssbin_converges_toward_exact_scaling_direction():
    # As the sweep budget grows the stochastic scaling vector should point
    # ever closer to the exact 2-norm equilibration vector. Medians over ten
    # probe seeds on one frozen moderately ill-scaled matrix.
    m = generate(CorpusSpec(family="spd", n=60, density=0.15, seed=11, scale_spread=1.0))
    exact = equilibrate_2norm(m, ExactOptions(tol=1e-12)).left
    op = from_sparse(m)

    def angle(u, v):
        c = float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))
        return float(np.arccos(np.clip(c, -1.0, 1.0)))

    medians = []
    for nmv in (32, 64, 128):
        vals = [angle(ssbin(op, nmv, probes=seed), exact) for seed in range(10)]
        medians.append(float(np.median(vals)))
    assert medians[0] > medians[1] > medians[2]
    assert medians[2] < 0.1


def test_snbin_improves_badly_scaled_matrix():
    rng = np.random.default_rng(42)
    n = 20
    d1 = 10.0 ** rng.uniform(-2, 2, n)
    d2 = 10.0 ** rng.uniform(-2, 2, n)
    a = SparseMatrix.from_dense(d1[:, None] * rng.standard_normal((n, n)) * d2)
    op = from_sparse(a)
    before = ratio(a)
    assert before > 1e3
    for seed in range(5):
        after = ratio(scale(a, snbin(op, 64, probes=seed)))
        assert after < before / 100


# ------------------------------------------------------------ estimator


def test_estimate_bx_diagonal_closed_form():
    # For A = diag(2, 3) and x = (1, 1), (A o A) x = (4, 9) exactly.
    a = from_sparse(SparseMatrix.from_dense(np.diag([2.0, 3.0])))
    est = estimate_bx(a, np.ones(2), 4000, probes=0)
    np.testing.assert_allclose(est, [4.0, 9.0], rtol=5 * np.sqrt(2 / 4000))


def test_estimate_bx_matches_exact_within_three_standard_errors(rng):
    for mseed in range(4):
        mrng = np.random.default_rng(100 + mseed)
        dense = mrng.standard_normal((10, 10))
        a = SparseMatrix.from_dense(dense)
        x = mrng.uniform(0.5, 2.0, 10)
        exact = (dense**2) @ x
        nsamples = 10000
        est = estimate_bx(from_sparse(a), x, nsamples, probes=mseed)
        se = np.sqrt(2.0 / nsamples) * exact
        assert np.all(np.abs(est - exact) <= 3.0 * se)


def test_estimate_bx_validation(rng):
    a = from_sparse(SparseMatrix.from_dense(np.eye(3)))
    with pytest.raises(DimensionMismatch):
        estimate_bx(a, np.ones(4), 10)
    with pytest.raises(ValueError):
        estimate_bx(a, np.array([1.0, 0.0, 1.0]), 10)
    with pytest.raises(ValueError):
        estimate_bx(a, np.array([1.0, np.inf, 1.0]), 10)
    with pytest.raises(ValueError):
        estimate_bx(a, np.ones(3), 0)
    with pytest.raises(ValueError, match=r"^nsamples must be integral, got 2\.5$"):
        estimate_bx(a, np.ones(3), 2.5)
    np.testing.assert_array_equal(estimate_bx(a, np.ones(3), np.int64(4)), estimate_bx(a, np.ones(3), 4))


# ---------------------------------------------------- reciprocal variant


def _snbin_reciprocal_variant(a, nmv, seed):
    """snbin with the reciprocals taken before blending, not after.

    Reciprocating each noisy one-sample estimate before blending gives the
    update heavy tails (division by near-zero samples), so the iteration is
    markedly less stable than snbin. Returns raw (left, right) vectors
    without validation since the estimates can degenerate.
    """

    def blend(state, sample, omega):
        return (1.0 - omega) * (state / state.sum()) + omega * (sample / sample.sum())

    sched = OmegaSchedule(nmv)
    probes = ProbeSource(seed)
    r = np.ones(a.nrows)
    c = np.ones(a.ncols)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, nmv + 1):
            omega = sched.omega(k)
            u = probes.normal(a.ncols)
            y = a.apply(np.sqrt(c) * u)
            r = blend(r, 1.0 / (y * y), omega)
            v = probes.normal(a.nrows)
            z = a.apply_transpose(np.sqrt(r) * v)
            c = blend(c, 1.0 / (z * z), omega)
    return np.sqrt(r), np.sqrt(c)


def test_blending_reciprocals_is_much_worse():
    # Reciprocating each one-sample estimate before blending puts heavy
    # tails on every update (division by near-zero probe outputs), so the
    # variant lands far from equilibrated on a matrix the production method
    # handles easily. This is why the running estimates track the squared
    # norms themselves and take reciprocals only at the end.
    rng = np.random.default_rng(42)
    n = 20
    d1 = 10.0 ** rng.uniform(-2, 2, n)
    d2 = 10.0 ** rng.uniform(-2, 2, n)
    a = SparseMatrix.from_dense(d1[:, None] * rng.standard_normal((n, n)) * d2)
    op = from_sparse(a)
    worse = 0
    good_ratios, bad_ratios = [], []
    for seed in range(10):
        good = ratio(scale(a, snbin(op, 64, probes=seed)))
        left, right = _snbin_reciprocal_variant(op, 64, seed)
        usable = (
            np.all(np.isfinite(left))
            and np.all(np.isfinite(right))
            and np.all(left > 0)
            and np.all(right > 0)
        )
        bad = (
            ratio(scale(a, DiagonalScaling(left, right))) if usable else np.inf
        )
        good_ratios.append(good)
        bad_ratios.append(bad)
        worse += bad > good
    assert worse >= 9
    assert np.median(bad_ratios) > 10 * np.median(good_ratios)
