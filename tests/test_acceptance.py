"""End-to-end acceptance checks.

Each test covers one numbered claim about the package as a whole and emits
a single PASS/FAIL line with the measured numbers; the conftest summary hook
replays those lines after the run so they are visible even under output
capture. Corpora are frozen by seed, so every number here is reproducible.
"""

import itertools
import time

import numpy as np

from equilibrate.cli import ExperimentConfig, run_experiment
from equilibrate.corpus import CorpusSpec, generate
from equilibrate.diagnostics import (
    condition_number,
    convergence_history,
    ratio,
    row_sum_variance,
)
from equilibrate.exact import (
    ExactOptions,
    equilibrate_2norm,
    jacobi_scale,
    sinkhorn_knopp,
    sym_sinkhorn_knopp,
    sym_sk_step,
)
from equilibrate.io import REPORT_FIELDS, write_matrix_market
from equilibrate.matrix import (
    DiagonalScaling,
    SparseMatrix,
    elementwise_square,
    from_sparse,
    scale,
)
from equilibrate.stochastic import ProbeSource, estimate_bx, snbin, ssbin
from equilibrate.structure import has_support, has_total_support


VERDICT_LINES = []


def _verdict(number, passed, detail):
    line = f"criterion {number}: {'PASS' if passed else 'FAIL'} ({detail})"
    VERDICT_LINES.append(line)
    print(line)
    assert passed, line


# Frozen corpora. The symmetric and nonsymmetric lists span n = 100..2000
# with family, density, mis-scaling spread, and seed chosen once; the
# condition-number list keeps n <= 200 so dense SVDs stay cheap.

SYM_CORPUS = [
    ("spd", 100, 0.06, 2.0, 0),
    ("spd", 150, 0.05, 2.5, 1),
    ("spd", 200, 0.04, 1.5, 2),
    ("spd", 300, 0.03, 2.0, 3),
    ("spd", 400, 0.02, 3.0, 4),
    ("spd", 500, 0.02, 2.0, 5),
    ("spd", 700, 0.012, 2.5, 6),
    ("spd", 1000, 0.008, 2.0, 7),
    ("spd", 1400, 0.006, 2.5, 8),
    ("spd", 2000, 0.004, 2.0, 9),
    ("symmetric_indefinite", 100, 0.08, 2.0, 10),
    ("symmetric_indefinite", 150, 0.06, 2.5, 11),
    ("symmetric_indefinite", 250, 0.04, 1.5, 12),
    ("symmetric_indefinite", 350, 0.03, 2.0, 13),
    ("symmetric_indefinite", 500, 0.02, 2.5, 14),
    ("symmetric_indefinite", 800, 0.012, 2.0, 15),
    ("symmetric_indefinite", 1200, 0.008, 2.5, 16),
    ("reducible_blocks", 200, 0.04, 2.0, 17),
    ("reducible_blocks", 600, 0.015, 1.5, 18),
    ("spd", 1600, 0.005, 3.0, 19),
]

NONSYM_CORPUS = [
    ("nonsymmetric_general", 100, 0.05, 2.0, 20),
    ("nonsymmetric_general", 150, 0.04, 1.5, 21),
    ("nonsymmetric_general", 200, 0.03, 2.5, 22),
    ("nonsymmetric_general", 300, 0.02, 2.0, 23),
    ("nonsymmetric_general", 400, 0.015, 2.0, 24),
    ("nonsymmetric_general", 500, 0.012, 2.5, 25),
    ("nonsymmetric_general", 700, 0.01, 1.5, 26),
    ("nonsymmetric_general", 1000, 0.006, 2.0, 27),
    ("nonsymmetric_general", 1400, 0.004, 2.5, 28),
    ("nonsymmetric_general", 2000, 0.003, 2.0, 29),
    ("permutation_plus_noise", 100, 0.06, 2.0, 30),
    ("permutation_plus_noise", 150, 0.05, 1.5, 31),
    ("permutation_plus_noise", 250, 0.03, 2.0, 32),
    ("permutation_plus_noise", 350, 0.025, 2.5, 33),
    ("permutation_plus_noise", 500, 0.015, 2.0, 34),
    ("permutation_plus_noise", 700, 0.01, 1.5, 35),
    ("permutation_plus_noise", 1000, 0.007, 2.0, 36),
    ("permutation_plus_noise", 1300, 0.005, 2.5, 37),
    ("permutation_plus_noise", 1700, 0.004, 2.0, 38),
    ("nonsymmetric_general", 1200, 0.005, 3.0, 39),
]

COND_CORPUS = [
    ("spd", 60, 1.0, 1e2, 1.0, 40),
    ("spd", 80, 1.0, 1e3, 1.5, 41),
    ("spd", 100, 1.0, 1e5, 2.0, 42),
    ("spd", 150, 1.0, 1e6, 1.5, 43),
    ("spd", 200, 1.0, 1e4, 1.0, 44),
    ("symmetric_indefinite", 60, 1.0, 1e2, 1.5, 45),
    ("symmetric_indefinite", 100, 1.0, 1e3, 2.0, 46),
    ("symmetric_indefinite", 150, 1.0, 1e5, 1.5, 47),
    ("symmetric_indefinite", 200, 1.0, 1e6, 1.0, 48),
    ("nonsymmetric_general", 60, 1.0, 1e2, 1.5, 49),
    ("nonsymmetric_general", 100, 1.0, 1e3, 2.0, 50),
    ("nonsymmetric_general", 150, 1.0, 1e5, 1.5, 51),
    ("nonsymmetric_general", 200, 1.0, 1e6, 1.0, 52),
    ("nonsymmetric_general", 120, 0.15, 1e4, 2.0, 53),
    ("spd", 120, 0.08, None, 2.0, 54),
    ("symmetric_indefinite", 120, 0.08, None, 2.0, 55),
]

_CACHE = {}


def _corpus(key, rows):
    if key not in _CACHE:
        _CACHE[key] = [
            generate(CorpusSpec(fam, n=n, density=d, seed=s, scale_spread=sp))
            for fam, n, d, sp, s in rows
        ]
    return _CACHE[key]


def test_01_exact_scaling_reaches_doubly_stochastic():
    # 50 generated matrices with total support, n <= 200. The 1-norm
    # iteration on the elementwise square must converge, and the scaled
    # matrix must have row and column sums within 1e-10 of 1. Sparse
    # near-decomposable patterns converge too slowly for this budget, so
    # the corpus mixes sparse permutation-union patterns with dense
    # spectrum-shaped ones.
    specs = []
    for i in range(20):
        n = 10 + (i * 29) % 191
        specs.append(
            CorpusSpec(
                "nonsymmetric_general",
                n=n,
                density=min(0.3, max(0.12, 8.0 / n)),
                seed=200 + i,
                scale_spread=1.0,
            )
        )
    for i in range(15):
        specs.append(
            CorpusSpec(
                "spd",
                n=10 + (i * 13) % 111,
                density=1.0,
                cond_target=10.0 ** (2 + i % 4),
                seed=230 + i,
                scale_spread=0.5,
            )
        )
    for i in range(15):
        specs.append(
            CorpusSpec(
                "symmetric_indefinite",
                n=12 + (i * 11) % 109,
                density=1.0,
                cond_target=10.0 ** (2 + i % 3),
                seed=250 + i,
                scale_spread=0.5,
            )
        )

    start = time.perf_counter()
    non_converged = 0
    worst_dev = 0.0
    for spec in specs:
        m = generate(spec)
        assert has_total_support(m)
        b = elementwise_square(m)
        s, history = sinkhorn_knopp(b)
        if not history.converged:
            non_converged += 1
            continue
        scaled = scale(b, s)
        e = np.ones(spec.n)
        dev = max(
            np.abs(scaled.matvec(e) - 1.0).max(),
            np.abs(scaled.rmatvec(e) - 1.0).max(),
        )
        worst_dev = max(worst_dev, dev)
    elapsed = time.perf_counter() - start

    passed = non_converged == 0 and worst_dev < 1e-10 and elapsed < 10.0
    _verdict(
        1,
        passed,
        f"50 matrices, non-converged {non_converged}, worst deviation "
        f"{worst_dev:.2e}, {elapsed:.1f}s",
    )


def test_02_symmetric_iteration_worked_examples():
    # Two tiny cases with hand-computable answers. diag(1, 2) scales with
    # x = (1, 1/sqrt(2)). On the scalar matrix [1] started from y = 2 the
    # raw iterate bounces between 1/2 and 2 forever while the paired
    # scaling is exactly 1.
    b = SparseMatrix.from_dense(np.diag([1.0, 2.0]))
    x, history = sym_sinkhorn_knopp(b)
    err = float(np.max(np.abs(x - np.array([1.0, 1.0 / np.sqrt(2.0)]))))

    scalar = SparseMatrix.from_dense(np.array([[1.0]]))
    y = np.array([2.0])
    seen = []
    for _ in range(4):
        y = sym_sk_step(scalar, y)
        seen.append(float(y[0]))
    x_scalar, _ = sym_sinkhorn_knopp(scalar, y0=np.array([2.0]))

    oscillates = seen == [0.5, 2.0, 0.5, 2.0]
    passed = (
        history.converged
        and err < 1e-10
        and oscillates
        and float(x_scalar[0]) == 1.0
    )
    _verdict(
        2,
        passed,
        f"diag example error {err:.2e}, scalar iterates {seen}, "
        f"paired scaling {float(x_scalar[0])}",
    )


def test_03_estimator_is_unbiased_within_standard_error():
    # 10 random signed 10x10 matrices, 1e4 probes each. The averaged
    # squared-probe estimate must sit within 3 standard errors of the true
    # row norms of the elementwise square, componentwise; the standard
    # error is sqrt(2/nsamples) times the true value.
    start = time.perf_counter()
    nsamples = 10000
    bad_components = 0
    for mseed in range(10):
        mrng = np.random.default_rng(100 + mseed)
        dense = mrng.standard_normal((10, 10))
        x = mrng.uniform(0.5, 2.0, 10)
        exact = (dense**2) @ x
        est = estimate_bx(
            from_sparse(SparseMatrix.from_dense(dense)), x, nsamples, probes=mseed
        )
        se = np.sqrt(2.0 / nsamples) * exact
        bad_components += int(np.sum(np.abs(est - exact) > 3.0 * se))
    elapsed = time.perf_counter() - start

    passed = bad_components == 0 and elapsed < 5.0
    _verdict(
        3,
        passed,
        f"10 matrices x 10 components, {bad_components} outside 3 SE, "
        f"{elapsed:.2f}s",
    )


def test_04_stochastic_quality_on_desk_corpora():
    # 20 symmetric and 20 nonsymmetric matrices, n = 100..2000, three probe
    # seeds each at a budget of 128 sweeps. The scaled norm-spread ratio
    # should land in the low single digits on nearly every cell.
    start = time.perf_counter()

    sym_mats = _corpus("sym", SYM_CORPUS)
    sym_afters, sym_improved = [], 0
    for m in sym_mats:
        before = ratio(m)
        op = from_sparse(m)
        for seed in range(3):
            x = ssbin(op, 128, ProbeSource(seed))
            after = ratio(scale(m, DiagonalScaling.symmetric(x)))
            sym_afters.append(after)
            sym_improved += after < before

    nonsym_mats = _corpus("nonsym", NONSYM_CORPUS)
    non_afters, non_improved = [], 0
    for m in nonsym_mats:
        before = ratio(m)
        op = from_sparse(m)
        for seed in range(3):
            s = snbin(op, 128, ProbeSource(seed))
            after = ratio(scale(m, s))
            non_afters.append(after)
            non_improved += after < before

    elapsed = time.perf_counter() - start
    sym_median = float(np.median(sym_afters))
    non_median = float(np.median(non_afters))
    passed = (
        1.5 <= sym_median <= 6.0
        and sym_improved >= 0.9 * len(sym_afters)
        and 1.5 <= non_median <= 6.0
        and non_improved >= 0.9 * len(non_afters)
        and elapsed < 60.0
    )
    _verdict(
        4,
        passed,
        f"symmetric median {sym_median:.2f} improved {sym_improved}/60, "
        f"nonsymmetric median {non_median:.2f} improved {non_improved}/60, "
        f"{elapsed:.1f}s",
    )


def test_05_condition_numbers_shrink():
    # 16 matrices with planted conditioning plus mis-scaling, two probe
    # seeds each. Scaling should rarely worsen the condition number and
    # should cut it at least in half (median) on the kappa > 1e4 subset.
    cells = 0
    worse = 0
    ill_ratios = []
    for fam, n, dens, target, spread, seed in COND_CORPUS:
        m = generate(
            CorpusSpec(
                fam, n=n, density=dens, cond_target=target, seed=seed, scale_spread=spread
            )
        )
        symmetric = m.is_symmetric()
        before = condition_number(m)
        op = from_sparse(m)
        for probe_seed in range(2):
            if symmetric:
                x = ssbin(op, 128, ProbeSource(probe_seed))
                scaled = scale(m, DiagonalScaling.symmetric(x))
            else:
                scaled = scale(m, snbin(op, 128, ProbeSource(probe_seed)))
            after = condition_number(scaled)
            cells += 1
            worse += after > before
            if before > 1e4:
                ill_ratios.append(after / before)

    ok_fraction = (cells - worse) / cells
    ill_median = float(np.median(ill_ratios))
    passed = ok_fraction >= 0.85 and ill_median < 0.5
    _verdict(
        5,
        passed,
        f"{cells} cells, improved or equal {ok_fraction:.0%}, "
        f"ill-conditioned subset {len(ill_ratios)} cells median after/before "
        f"{ill_median:.2e}",
    )


def test_06_output_variance_across_seeds_is_small():
    # Ten probe seeds per symmetric corpus matrix at 128 sweeps. The spread
    # of log10(ratio_after) should stay below half a decade on at least 90%
    # of the matrices.
    mats = _corpus("sym", SYM_CORPUS)
    tight = 0
    worst = 0.0
    for m in mats:
        op = from_sparse(m)
        logs = []
        for seed in range(10):
            x = ssbin(op, 128, ProbeSource(seed))
            logs.append(np.log10(ratio(scale(m, DiagonalScaling.symmetric(x)))))
        spread = max(logs) - min(logs)
        worst = max(worst, spread)
        tight += spread < 0.5

    passed = tight >= 0.9 * len(mats)
    _verdict(
        6,
        passed,
        f"log10 spread < 0.5 for {tight}/{len(mats)} matrices, worst {worst:.3f}",
    )


def test_07_probe_mirroring_switch_matters_on_reducible_input():
    # On a block-diagonal matrix whose blocks live at very different
    # magnitudes, the variant that never switches probe shaping stalls.
    # The nominal method holds a plateau while the copies stay identical
    # and drops sharply once the swap phase begins at sweep 32 (budget
    # 128), so the history is flat over sweeps 24..31 and falls hard over
    # 32..39.
    m = generate(
        CorpusSpec("reducible_blocks", n=200, density=0.03, seed=6, scale_spread=4.0)
    )
    margins = []
    nominal_series = []
    for seed in range(10):
        nominal = convergence_history(m, "ssbin", nmv=128, seed=seed)
        stalled = convergence_history(m, "ssbin_noswitch", nmv=128, seed=seed)
        margins.append(stalled[-1] - nominal[-1])
        nominal_series.append(nominal)

    wins = sum(margin > 0 for margin in margins)
    avg = np.mean(np.array(nominal_series), axis=0)
    plateau_change = float(avg[23] - avg[31])
    drop = float(avg[31] - avg[39])
    passed = wins >= 9 and drop > 0.3 and plateau_change < 0.2
    _verdict(
        7,
        passed,
        f"no-switch worse in {wins}/10 seeds (min margin {min(margins):.3f}), "
        f"plateau change {plateau_change:.3f}, drop after switch {drop:.3f}",
    )


def test_08_spd_diagonal_and_variance_bounds():
    # 20 random spd matrices, n <= 500. After exact 2-norm equilibration
    # every diagonal entry lies in (1/sqrt(n), 1]; after Jacobi scaling the
    # population variance of the squared row sums stays below (n-1)^2. The
    # 1e-9 slack absorbs the iterative solver's stopping tolerance.
    diag_ok = 0
    var_ok = 0
    for i in range(20):
        n = 30 + (i * 23) % 471
        m = generate(
            CorpusSpec(
                "spd",
                n=n,
                density=min(0.3, max(0.03, 8.0 / n)),
                seed=300 + i,
                scale_spread=1.5,
            )
        )
        scaled = scale(m, equilibrate_2norm(m))
        diag = scaled.diagonal()
        if np.all(diag > 1.0 / np.sqrt(n) - 1e-9) and np.all(diag <= 1.0 + 1e-9):
            diag_ok += 1
        if row_sum_variance(scale(m, jacobi_scale(m))) < (n - 1) ** 2:
            var_ok += 1

    passed = diag_ok == 20 and var_ok == 20
    _verdict(
        8,
        passed,
        f"diagonal bounds {diag_ok}/20, squared-row-sum variance bound {var_ok}/20",
    )


def _support_oracle(pattern, n):
    return any(
        all(pattern[i][p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


def _total_support_oracle(pattern, n):
    covered = [[False] * n for _ in range(n)]
    any_perm = False
    for p in itertools.permutations(range(n)):
        if all(pattern[i][p[i]] for i in range(n)):
            any_perm = True
            for i in range(n):
                covered[i][p[i]] = True
    if not any_perm:
        return False
    return all(covered[i][j] for i in range(n) for j in range(n) if pattern[i][j])


def test_09_structure_predicates_match_exhaustive_oracles():
    # 200 random patterns of size at most 7, checked against brute-force
    # enumeration of all permutations.
    rng = np.random.default_rng(4242)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(1, 8))
        density = float(rng.uniform(0.1, 0.9))
        pattern = (rng.random((n, n)) < density).astype(int)
        if trial % 3 == 0:
            np.fill_diagonal(pattern, 1)
        m = SparseMatrix.from_dense(pattern)
        if has_support(m) != _support_oracle(pattern, n):
            mismatches += 1
        if has_total_support(m) != _total_support_oracle(pattern, n):
            mismatches += 1

    _verdict(9, mismatches == 0, f"200 patterns, {mismatches} disagreements")


class _SealedOperator:
    """Counts applies; any other attribute access fails the test."""

    _ALLOWED = {"_m", "nrows", "ncols", "applies", "transpose_applies"}

    def __init__(self, m):
        object.__setattr__(self, "_m", m)
        object.__setattr__(self, "nrows", m.nrows)
        object.__setattr__(self, "ncols", m.ncols)
        object.__setattr__(self, "applies", 0)
        object.__setattr__(self, "transpose_applies", 0)

    def apply(self, x):
        object.__setattr__(self, "applies", self.applies + 1)
        return self._m.matvec(x)

    def apply_transpose(self, x):
        object.__setattr__(self, "transpose_applies", self.transpose_applies + 1)
        return self._m.rmatvec(x)

    def __getattr__(self, name):
        raise AssertionError(f"element access attempted via attribute {name!r}")

    def __setattr__(self, name, value):
        raise AssertionError(f"mutation attempted via attribute {name!r}")


def test_10_algorithms_touch_nothing_but_products():
    # A sealed wrapper proves the stochastic methods consume exactly their
    # sweep budget in operator products and read no matrix elements: the
    # wrapper raises on any attribute beyond apply/apply_transpose and the
    # shape.
    rng = np.random.default_rng(77)
    dense = rng.standard_normal((30, 30))
    sym = SparseMatrix.from_dense(dense + dense.T + 20 * np.eye(30))
    gen = SparseMatrix.from_dense(rng.standard_normal((30, 30)))

    violations = []
    for nmv in (1, 32, 128):
        guard = _SealedOperator(sym)
        ssbin(guard, nmv, ProbeSource(0))
        if (guard.applies, guard.transpose_applies) != (nmv, 0):
            violations.append(f"ssbin@{nmv}: {guard.applies}/{guard.transpose_applies}")
        guard = _SealedOperator(gen)
        snbin(guard, nmv, ProbeSource(0))
        if (guard.applies, guard.transpose_applies) != (nmv, nmv):
            violations.append(f"snbin@{nmv}: {guard.applies}/{guard.transpose_applies}")

    _verdict(
        10,
        not violations,
        "exact budgets at nmv 1/32/128, no element access"
        if not violations
        else "; ".join(violations),
    )


def test_11_reports_reproduce_exactly(tmp_path):
    # Two runs of the same batch config must agree on every report field
    # except wall_time, stochastic cells included.
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((15, 15))
    d = 10.0 ** rng.uniform(-1.0, 1.0, 15)
    mtx_path = tmp_path / "fixed.mtx"
    write_matrix_market(
        SparseMatrix.from_dense((dense + dense.T + 10 * np.eye(15)) * (d[:, None] * d)),
        mtx_path,
        symmetric=True,
    )

    def fresh_config():
        return ExperimentConfig(
            inputs=[
                str(mtx_path),
                CorpusSpec(family="nonsymmetric_general", n=25, density=0.2, seed=13, scale_spread=1.0),
                CorpusSpec(family="spd", n=20, density=0.3, seed=14, scale_spread=1.5),
            ],
            algorithms=("ssbin", "snbin", "sk_exact", "sym_sk_exact", "jacobi", "inf_norm"),
            budgets=(32, 64),
            seeds_per_run=2,
        ).validate()

    first = run_experiment(fresh_config())
    second = run_experiment(fresh_config())

    fields = [name for name in REPORT_FIELDS if name != "wall_time"]
    diffs = 0
    for a, b in zip(first, second):
        for name in fields:
            if getattr(a, name) != getattr(b, name):
                diffs += 1
    passed = diffs == 0 and len(first) == len(second) and len(first) > 0
    _verdict(
        11,
        passed,
        f"{len(first)} rows x {len(fields)} fields, {diffs} mismatches",
    )
