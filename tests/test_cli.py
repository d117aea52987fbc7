import csv
import dataclasses
import json
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from equilibrate import cli
from equilibrate.cli import (
    ALGORITHMS,
    CELL_ERRORS,
    DEFAULT_BUDGETS,
    TABLE,
    ExperimentConfig,
    emit_history,
    main,
    parse_config,
    run_experiment,
)
from equilibrate.corpus import CorpusSpec, generate, spec_name
from equilibrate.diagnostics import condition_number, condition_numbers, ratio
from equilibrate.errors import ConfigError
from equilibrate.io import REPORT_FIELDS, read_matrix_market
from equilibrate.matrix import DiagonalScaling, SparseMatrix, scale
from equilibrate.io import write_matrix_market


def _write_config(path, text):
    path.write_text(text)
    return str(path)


def _identity_mtx(tmp_path, n=6):
    p = tmp_path / "identity.mtx"
    write_matrix_market(SparseMatrix.from_dense(np.eye(n)), p, symmetric=True)
    return str(p)


def _sym_mtx(tmp_path, seed=3, n=10):
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, n))
    d = 10.0 ** rng.uniform(-1.5, 1.5, n)
    m = SparseMatrix.from_dense((dense + dense.T + 8 * np.eye(n)) * (d[:, None] * d))
    p = tmp_path / f"sym{seed}.mtx"
    write_matrix_market(m, p, symmetric=True)
    return str(p)


def _gen_mtx(tmp_path, seed=4, n=9):
    rng = np.random.default_rng(seed)
    m = SparseMatrix.from_dense(rng.standard_normal((n, n)))
    p = tmp_path / f"gen{seed}.mtx"
    write_matrix_market(m, p)
    return str(p)


# ------------------------------------------------------------- config


def test_parse_config_full(tmp_path):
    mtx = _identity_mtx(tmp_path)
    cfg_path = _write_config(
        tmp_path / "exp.cfg",
        f"""# experiment
matrix = {mtx}
corpus = family=spd n=20 density=0.3 seed=1
algorithms = ssbin, snbin
budgets = 8, 16
seeds_per_run = 3
format = json
cond_cap = 500
""",
    )
    cfg = parse_config(cfg_path)
    assert cfg.inputs[0] == mtx
    assert cfg.inputs[1] == CorpusSpec(family="spd", n=20, density=0.3, seed=1)
    assert cfg.algorithms == ("ssbin", "snbin")
    assert cfg.budgets == (8, 16)
    assert cfg.seeds_per_run == 3
    assert cfg.fmt == "json"
    assert cfg.cond_cap == 500


def test_parse_config_defaults(tmp_path):
    cfg_path = _write_config(
        tmp_path / "exp.cfg",
        "corpus = family=spd n=10 density=0.5\nalgorithms = jacobi\n",
    )
    cfg = parse_config(cfg_path)
    assert cfg.budgets == DEFAULT_BUDGETS == (32, 64, 128)
    assert cfg.seeds_per_run == 5
    assert cfg.fmt == "csv"
    assert cfg.out is None


@pytest.mark.parametrize(
    "body,message",
    [
        ("algorithms = ssbin\n", "no matrices"),
        ("matrix = a.mtx\n", "no algorithms"),
        ("matrix = a.mtx\nalgorithms = ssbin\nbudgets = 0\n", "budgets"),
        ("matrix = a.mtx\nalgorithms = magic\n", "unknown algorithm"),
        ("matrix = a.mtx\nalgorithms = ssbin\nseeds_per_run = 0\n", "seeds_per_run"),
        ("matrix = a.mtx\nalgorithms = ssbin\nformat = yaml\n", "format"),
        ("matrix = a.mtx\nalgorithms = ssbin\nwhat = 7\n", "unknown key"),
        ("matrix = a.mtx\nalgorithms = ssbin\nalgorithms = snbin\n", "duplicate"),
        ("just some words\n", "key = value"),
        ("matrix = a.mtx\nalgorithms = ssbin\nbudgets = a,b\n", "invalid literal"),
        ("matrix = a.mtx\nalgorithms = inf_norm, inf_norm\n", "algorithms must not repeat"),
        ("matrix = a.mtx\nalgorithms = inf_norm\nbudgets = 32, 32\n", "budgets must not repeat"),
        ("corpus = family=what n=5\nalgorithms = ssbin\n", "unknown family"),
        ("matrix = a.mtx\nalgorithms = inf_norm\ncond_cap = 0\n", "cond_cap must be positive"),
        ("matrix = a/m.mtx\nmatrix = b/m.mtx\nalgorithms = ssbin\n", "'a/m.mtx' and 'b/m.mtx' share"),
        (
            "corpus = family=spd n=30 density=0.123456\ncorpus = family=spd n=30 density=0.1234561\n"
            "algorithms = ssbin\n",
            r"density=0.123456,.* and .*density=0.1234561,.* share the name 'spd_n30_d0.123456_s0'",
        ),
    ],
)
def test_parse_config_errors(tmp_path, body, message):
    cfg_path = _write_config(tmp_path / "bad.cfg", body)
    with pytest.raises(ConfigError, match=message):
        parse_config(cfg_path)


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config("/nonexistent/exp.cfg")


def test_config_error_carries_line_number(tmp_path):
    cfg_path = _write_config(
        tmp_path / "bad.cfg", "matrix = a.mtx\nalgorithms = ssbin\nbudgets = x\n"
    )
    with pytest.raises(ConfigError, match=r"bad\.cfg:3"):
        parse_config(cfg_path)


# ------------------------------------------------------- run_experiment


def test_run_experiment_row_count_and_order(tmp_path):
    cfg = ExperimentConfig(
        inputs=[
            CorpusSpec(family="spd", n=12, density=0.4, seed=1, scale_spread=1.0),
            CorpusSpec(family="nonsymmetric_general", n=12, density=0.4, seed=2),
        ],
        algorithms=ALGORITHMS,
        budgets=(4, 8),
        seeds_per_run=2,
    ).validate()
    rows = run_experiment(cfg)
    # Symmetric matrix runs all eight algorithms, the nonsymmetric one skips
    # the five symmetric-only ones.
    assert len(rows) == (8 + 3) * 2 * 2
    keys = [(r.matrix_name, r.algorithm, r.nmv, r.seed) for r in rows]
    assert keys == sorted(keys)
    nonsym_algs = {r.algorithm for r in rows if r.matrix_name.startswith("nonsym")}
    assert nonsym_algs == {name for name, alg in TABLE.items() if not alg.symmetric_only}


def test_run_experiment_records_metrics(tmp_path):
    cfg = ExperimentConfig(
        inputs=[CorpusSpec(family="spd", n=15, density=0.4, seed=3, scale_spread=1.5)],
        algorithms=("sym_sk_exact", "jacobi"),
        budgets=(50,),
        seeds_per_run=1,
    ).validate()
    rows = run_experiment(cfg)
    for r in rows:
        assert r.status == "ok"
        assert r.ratio_before > 1.0
        assert r.ratio_after > 0
        assert r.cond_before is not None and r.cond_after is not None
        assert r.wall_time >= 0
    exact = next(r for r in rows if r.algorithm == "sym_sk_exact")
    assert exact.ratio_after < exact.ratio_before / 3


def test_run_experiment_identity_exact_algorithms_hit_one(tmp_path):
    cfg = ExperimentConfig(
        inputs=[str(_identity_mtx(tmp_path))],
        algorithms=("sk_exact", "sym_sk_exact", "jacobi", "inf_norm"),
        budgets=(16,),
        seeds_per_run=1,
    ).validate()
    rows = run_experiment(cfg)
    assert len(rows) == 4
    for r in rows:
        assert r.status == "ok"
        assert abs(r.ratio_after - 1.0) <= 1e-8


def test_run_experiment_missing_file_produces_failure_rows():
    cfg = ExperimentConfig(
        inputs=["/nonexistent/never.mtx"],
        algorithms=("snbin", "ssbin"),
        budgets=(4,),
        seeds_per_run=2,
    ).validate()
    rows = run_experiment(cfg)
    assert len(rows) == 2 * 1 * 2
    assert all(r.status.startswith("error:") for r in rows)
    assert all(r.ratio_after is None for r in rows)


def test_run_experiment_zero_row_matrix_fails_per_cell(tmp_path):
    p = tmp_path / "zr.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 2 1.0\n")
    cfg = ExperimentConfig(
        inputs=[str(p)], algorithms=("snbin",), budgets=(4,), seeds_per_run=1
    ).validate()
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].status.startswith("error:")


@pytest.mark.parametrize(
    "left, message",
    [
        (lambda n: np.ones(n + 1), "scaling vectors do not conform"),  # `scale` rejects it
        (lambda n: np.r_[1e-200, np.ones(n - 1)], "zero row"),  # `ratio` rejects it
    ],
)
def test_run_experiment_rejected_scaling_fails_its_cells_only(monkeypatch, left, message):
    def rejected(m, budget, seed, on_iteration=None):
        return DiagonalScaling(left(m.nrows), np.ones(m.ncols))

    monkeypatch.setitem(TABLE, "inf_norm", dataclasses.replace(TABLE["inf_norm"], scaling=rejected))
    cfg = ExperimentConfig(
        inputs=[_SYM_SPEC], algorithms=("inf_norm", "jacobi"), budgets=(4,), seeds_per_run=2
    ).validate()
    rows = run_experiment(cfg)
    assert len(rows) == 2 * 2
    for r in rows:
        assert r.wall_time is not None and r.cond_before is not None
        if r.algorithm == "inf_norm":
            assert r.status.startswith("error: ") and message in r.status, r
            assert r.ratio_after is None and r.cond_after is None
        else:
            assert r.status == "ok", r
            assert r.ratio_after is not None and r.cond_after is not None


def test_run_experiment_is_reproducible_except_wall_time():
    cfg = ExperimentConfig(
        inputs=[CorpusSpec(family="symmetric_indefinite", n=14, density=0.4, seed=5, scale_spread=1.0)],
        algorithms=("ssbin", "snbin"),
        budgets=(8,),
        seeds_per_run=2,
    ).validate()
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    for a, b in zip(first, second):
        for name in REPORT_FIELDS:
            if name == "wall_time":
                continue
            assert getattr(a, name) == getattr(b, name), name


# ------------------------------------------------- memo of repeated cells

_SYM_SPEC = CorpusSpec(family="spd", n=20, density=0.3, seed=21, scale_spread=1.5)
_NONSYM_SPEC = CorpusSpec(family="nonsymmetric_general", n=25, density=0.2, seed=22, scale_spread=1.5)


def _memo_config():
    return ExperimentConfig(
        inputs=[_SYM_SPEC, _NONSYM_SPEC],
        algorithms=ALGORITHMS,
        budgets=(4, 8, 16),
        seeds_per_run=3,
    ).validate()


def _same_scaling(a, b):
    return a.left.tobytes() == b.left.tobytes() and a.right.tobytes() == b.right.tobytes()


def _patch_conditions(monkeypatch, hook=lambda m: None):
    """Patch both condition-number seams of ``run_experiment``.

    ``condition_number`` gives cond_before, and ``condition_numbers`` the
    stacks of cond_after, on whichever thread computes them. Each matrix
    passes through ``hook(m)`` first, in the order the run asks for it. A
    cell error that ``hook`` raises for a matrix in a stack becomes that
    matrix's result, as ``condition_numbers`` returns one; anything else
    propagates. Returns the list of stacks, each
    (thread ident, matrices).
    """
    stacks = []

    def one(m, cap):
        hook(m)
        return condition_number(m, cap)

    def stacked(matrices, cap):
        stacks.append((threading.get_ident(), list(matrices)))
        refused = []
        for m in matrices:
            try:
                hook(m)
                refused.append(None)
            except CELL_ERRORS as exc:
                refused.append(exc)
        results = iter(condition_numbers([m for m, r in zip(matrices, refused) if r is None], cap))
        return [next(results) if r is None else r for r in refused]

    monkeypatch.setattr("equilibrate.cli.condition_number", one)
    monkeypatch.setattr("equilibrate.cli.condition_numbers", stacked)
    return stacks


@pytest.mark.parametrize("spec", [_SYM_SPEC, _NONSYM_SPEC], ids=["symmetric", "nonsymmetric"])
def test_seed_free_entries_ignore_the_seed(spec):
    m = generate(spec)
    for name, alg in TABLE.items():
        if alg.uses_seed or (alg.symmetric_only and not m.is_symmetric()):
            continue
        assert _same_scaling(alg.scaling(m, 32, 0), alg.scaling(m, 32, 5)), name


@pytest.mark.parametrize("spec", [_SYM_SPEC, _NONSYM_SPEC], ids=["symmetric", "nonsymmetric"])
def test_budget_free_entries_ignore_the_budget(spec):
    m = generate(spec)
    for name, alg in TABLE.items():
        if alg.uses_budget or (alg.symmetric_only and not m.is_symmetric()):
            continue
        assert _same_scaling(alg.scaling(m, 32, 0), alg.scaling(m, 128, 0)), name


def test_run_experiment_computes_each_distinct_cell_once(monkeypatch):
    calls = {}

    def counting(m):
        calls[m.nrows] = calls.get(m.nrows, 0) + 1

    _patch_conditions(monkeypatch, counting)
    rows = run_experiment(_memo_config())
    assert all(r.status == "ok" for r in rows)
    # One call for cond_before plus one per distinct cell. Symmetric input:
    # snbin, ssbin, snbin_sym and ssbin_noswitch 3 budgets x 3 seeds each,
    # sk_exact and sym_sk_exact one per budget, jacobi and inf_norm once.
    # Nonsymmetric input: snbin 9, sk_exact 3, inf_norm 1.
    assert calls == {20: 1 + 9 + 9 + 9 + 9 + 3 + 3 + 1 + 1, 25: 1 + 9 + 3 + 1}


def test_run_experiment_matches_one_computation_per_cell():
    cfg = _memo_config()
    expected = []
    for spec in cfg.inputs:
        m = generate(spec)
        before = (ratio(m), condition_number(m))
        for name in cfg.algorithms:
            alg = TABLE[name]
            if alg.symmetric_only and not m.is_symmetric():
                continue
            for budget in cfg.budgets:
                for seed in range(cfg.seeds_per_run):
                    scaled = scale(m, alg.scaling(m, budget, seed))
                    after = (ratio(scaled), condition_number(scaled))
                    expected.append(
                        (spec_name(spec), name, seed, budget, before[0], after[0], before[1], after[1], "ok")
                    )
    fields = [name for name in REPORT_FIELDS if name != "wall_time"]
    rows = [tuple(getattr(r, name) for name in fields) for r in run_experiment(cfg)]
    assert sorted(rows) == sorted(expected)


def test_run_experiment_tests_each_matrix_for_symmetry_once(tmp_path, monkeypatch):
    # The symmetry test transposes; the squared matrix sym_sk_exact iterates
    # on inherits the input's answer instead of transposing again, and the
    # ratio of a scaled matrix measures both sides without asking.
    cfg = ExperimentConfig(
        inputs=[_sym_mtx(tmp_path)],
        algorithms=("jacobi", "sym_sk_exact", "snbin", "sk_exact", "inf_norm"),
        budgets=(4, 8),
        seeds_per_run=2,
    ).validate()
    transposed = []
    original = SparseMatrix.transpose

    def counting(self):
        transposed.append(self)
        return original(self)

    monkeypatch.setattr(SparseMatrix, "transpose", counting)
    rows = run_experiment(cfg)
    assert all(r.status == "ok" for r in rows)
    assert len(transposed) == 1
    assert transposed[0].data.min() < 0.0  # the signed input, not its square


# ----------------------------------------- where condition numbers run


def _without_wall_time(rows):
    fields = [name for name in REPORT_FIELDS if name != "wall_time"]
    return [tuple(getattr(r, name) for name in fields) for r in rows]


def _failing_call(number, exc, calls):
    """`_patch_conditions` hook raising ``exc`` for the ``number``-th matrix seen in ``calls``."""

    def hook(m):
        calls.append(m)
        if len(calls) == number:
            raise exc

    return hook


def _record_scale(monkeypatch):
    """Patch the scale ``run_experiment`` calls; return the list of matrices it scales."""
    scaled = []

    def recording(m, scaling):
        scaled.append(m)
        return scale(m, scaling)

    monkeypatch.setattr("equilibrate.cli.scale", recording)
    return scaled


@pytest.fixture(params=["here", "worker"])
def cond_after_path(request, monkeypatch):
    """Where the stacks of cond_after run: "here", where the worker is held
    on a first call until shutdown (or a minute), so that the calling
    thread takes back every stack; or "worker", where submit returns only
    once the worker has started the stack, so that none can be taken back.
    Returns the name, the matrices scaled (as `_record_scale` does) and the
    stacks sent, each (order, count, cells scaled before it was sent)."""
    path = SimpleNamespace(name=request.param, scaled=_record_scale(monkeypatch), sent=[])

    class Worker(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.release = threading.Event()
            if path.name == "here":
                super().submit(self.release.wait, 60)

        def submit(self, fn, matrices, cap):
            path.sent.append((matrices[0].nrows, len(matrices), len(path.scaled)))
            started = threading.Event()

            def run():
                started.set()
                return fn(matrices, cap)

            future = super().submit(run)
            if path.name == "worker":
                assert started.wait(60)
            return future

        def shutdown(self, *args, **kwargs):
            self.release.set()
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr("equilibrate.cli.ThreadPoolExecutor", Worker)
    return path


def _stack_threads(stacks, path):
    """Assert that ``stacks`` ran where ``path`` puts them: all on this
    thread, or all on one other thread."""
    threads = {ident for ident, _ in stacks}
    if path.name == "here":
        assert threads == {threading.get_ident()}
    else:
        assert len(threads) == 1 and threading.get_ident() not in threads


def test_run_experiment_wall_time_excludes_a_failing_condition_number(monkeypatch, cond_after_path):
    calls = []

    def slow_failing(m):
        calls.append(m)
        if len(calls) > 1:  # after cond_before
            time.sleep(0.5)
            raise ValueError("too slow")

    _patch_conditions(monkeypatch, slow_failing)
    cfg = ExperimentConfig(
        inputs=[_SYM_SPEC], algorithms=("jacobi",), budgets=(4,), seeds_per_run=1
    ).validate()
    [row] = run_experiment(cfg)
    assert row.status == "error: too slow"
    assert row.wall_time < 0.25
    assert len(calls) == 2


def test_run_experiment_failing_cond_after_fails_its_cell_only(monkeypatch, cond_after_path):
    # The calls for one order arrive in order: cond_before, then its stack's
    # in the order the cells were scaled. Symmetric input (order 20):
    # jacobi's single cell, sk_exact at budget 4 and sk_exact at budget 8,
    # whose two seeds copy one computed row. Nonsymmetric input (order 25,
    # no jacobi): sk_exact at budget 4 first.
    failing = {20: 1 + 3, 25: 1 + 1}
    calls = {20: [], 25: []}

    def failing_one(m):
        calls[m.nrows].append(threading.get_ident())
        if len(calls[m.nrows]) == failing[m.nrows]:
            raise np.linalg.LinAlgError("SVD did not converge")

    stacks = _patch_conditions(monkeypatch, failing_one)
    cfg = ExperimentConfig(
        inputs=[_SYM_SPEC, _NONSYM_SPEC],
        algorithms=("jacobi", "sk_exact", "snbin"),
        budgets=(4, 8),
        seeds_per_run=2,
    ).validate()
    threads = threading.active_count()
    rows = run_experiment(cfg)
    assert threading.active_count() == threads
    assert len(rows) == 3 * 2 * 2 + 2 * 2 * 2
    failed = {(spec_name(_SYM_SPEC), 8), (spec_name(_NONSYM_SPEC), 4)}
    for r in rows:
        assert r.cond_before is not None and r.ratio_after is not None
        if r.algorithm == "sk_exact" and (r.matrix_name, r.nmv) in failed:
            assert r.status == "error: SVD did not converge", r
            assert r.cond_after is None
        else:
            assert r.status == "ok", r
            assert r.cond_after is not None
    assert len(calls[20]) == 1 + 1 + 2 + 4 and len(calls[25]) == 1 + 2 + 4
    # Neither order fills a stack, so each goes whole after the last cell.
    assert cond_after_path.sent == [(20, 7, 13), (25, 6, 13)]
    _stack_threads(stacks, cond_after_path)


def test_run_experiment_failing_cond_before_fails_its_input_only(monkeypatch):
    calls = []
    _patch_conditions(monkeypatch, _failing_call(1, ValueError("boom"), calls))
    scaled = _record_scale(monkeypatch)
    cfg = ExperimentConfig(
        inputs=[_SYM_SPEC, _NONSYM_SPEC], algorithms=("ssbin", "snbin"), budgets=(4,), seeds_per_run=2
    ).validate()
    threads = threading.active_count()
    rows = run_experiment(cfg)
    assert threading.active_count() == threads
    assert len(rows) == 2 * 2 + 1 * 2
    for r in rows:
        if r.matrix_name == spec_name(_SYM_SPEC):
            assert r.status == "error: boom", r
            assert r.ratio_before is None and r.wall_time is None
        else:
            assert r.status == "ok", r
    # cond_before fails before the failed input's cells start, so they are
    # never scaled and have no condition numbers.
    assert [c.nrows for c in calls] == [20, 25, 25, 25]
    assert [m.nrows for m in scaled] == [25, 25]


def test_run_experiment_propagates_a_bug_in_cond_after(monkeypatch, cond_after_path):
    calls = []
    _patch_conditions(monkeypatch, _failing_call(2, RuntimeError("bug"), calls))
    cfg = ExperimentConfig(
        inputs=[_SYM_SPEC], algorithms=("jacobi", "snbin"), budgets=(4,), seeds_per_run=1
    ).validate()
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="bug"):
        run_experiment(cfg)
    assert threading.active_count() == threads


def test_run_experiment_scales_in_config_order_and_sends_each_stack_when_full(
    monkeypatch, cond_after_path
):
    scaled = cond_after_path.scaled
    here = threading.get_ident()
    calls = []
    stacks = _patch_conditions(
        monkeypatch, lambda m: calls.append((threading.get_ident(), m, len(scaled)))
    )
    cfg = _memo_config()
    threads = threading.active_count()
    run_experiment(cfg)
    assert threading.active_count() == threads
    assert len(calls) == 2 + 44 + 13
    # Each input is loaded and measured, then its cells are scaled, in
    # config order; cond_before stays on this thread.
    assert [m.nrows for m in scaled] == [20] * 44 + [25] * 13
    mine = [(m, done) for ident, m, done in calls if ident == here]
    assert [m for m, _ in mine[:2]] == [generate(spec) for spec in cfg.inputs]
    assert [done for _, done in mine[:2]] == [0, 44]
    # Order 20's first stack of ceil(501 / 20) = 26 goes as its 26th cell is
    # scaled. Its last 18 and order 25's 13 (21 would fill a stack) go after
    # the last of the 57 cells.
    assert cond_after_path.sent == [(20, 26, 26), (20, 18, 57), (25, 13, 57)]
    _stack_threads(stacks, cond_after_path)
    computed = [(m[0].nrows, len(m)) for _, m in stacks]
    if cond_after_path.name == "here":  # taken back from the last one sent
        assert computed == [(25, 13), (20, 18), (20, 26)]
    else:
        assert computed == [(20, 26), (20, 18), (25, 13)]


def test_run_experiment_stacks_hold_more_than_500_rows_but_each_orders_last(
    monkeypatch, cond_after_path
):
    # Two order-20 inputs share their stacks of ceil(501 / 20) = 26; the
    # order-25 input's 13 cond_after make one short stack (21 would fill it).
    cfg = dataclasses.replace(
        _memo_config(),
        inputs=[
            _SYM_SPEC,
            _NONSYM_SPEC,
            CorpusSpec(family="nonsymmetric_general", n=20, density=0.2, seed=23, scale_spread=1.5),
        ],
    )
    stacks = _patch_conditions(monkeypatch)
    rows = run_experiment(cfg)
    assert all(r.status == "ok" for r in rows)
    for _, matrices in stacks:
        assert len({(m.nrows, m.ncols) for m in matrices}) == 1
    # The second order-20 stack fills at the third input's 8th cell.
    assert cond_after_path.sent == [(20, 26, 26), (20, 26, 44 + 13 + 8), (25, 13, 70), (20, 5, 70)]
    sizes = {}
    for order, count, _ in cond_after_path.sent:
        sizes.setdefault(order, []).append(count)
    for order, counts in sizes.items():
        assert all(count * order > 500 for count in counts[:-1])


def test_run_experiment_takes_back_the_stacks_a_held_worker_has_not_started(monkeypatch):
    cfg = _memo_config()
    expected = _without_wall_time(run_experiment(cfg))
    here = threading.get_ident()
    started, release = threading.Event(), threading.Event()

    def hold(m):
        taken = [matrices for ident, matrices in stacks if ident == here]
        if threading.get_ident() != here:
            started.set()
            release.wait(timeout=60)
        elif taken:
            # The worker holds order 20's first stack, sent as it filled,
            # while this thread takes back the two stacks sent after the
            # last cell; then the worker may finish.
            started.wait(timeout=60)
            if len(taken) == 2:
                release.set()

    stacks = _patch_conditions(monkeypatch, hold)
    rows = run_experiment(cfg)
    assert _without_wall_time(rows) == expected
    assert sorted((ident == here, m[0].nrows, len(m)) for ident, m in stacks) == [
        (False, 20, 26),
        (True, 20, 18),
        (True, 25, 13),
    ]


def test_run_experiment_bad_matrix_in_a_stack_fails_its_row_only(monkeypatch):
    cfg = _memo_config()
    expected = _without_wall_time(run_experiment(cfg))
    marker = 1234.5678  # an entry that makes the patched SVD fail to converge
    # Seeded cells, so that no other row copies theirs; both are scaled into
    # the first of the order-20 input's two stacks.
    bad = {("snbin", 4, 1): math.nan, ("ssbin", 8, 2): marker}
    scale_cell, svd = cli._scale_cell, np.linalg.svd

    def corrupting(row, m, alg):
        scaled = scale_cell(row, m, alg)
        if row.matrix_name == spec_name(_SYM_SPEC) and (row.algorithm, row.nmv, row.seed) in bad:
            data = scaled.data.copy()
            data[0] = bad[row.algorithm, row.nmv, row.seed]
            return SparseMatrix.from_coo(m.nrows, m.ncols, scaled.rows, scaled.indices, data)
        return scaled

    def failing_svd(a, *args, **kwargs):
        if (a == marker).any():
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr("equilibrate.cli._scale_cell", corrupting)
    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    rows = run_experiment(cfg)
    status = {
        ("snbin", 4, 1): "error: condition number needs finite entries",
        ("ssbin", 8, 2): "error: SVD did not converge",
    }
    fields = [name for name in REPORT_FIELDS if name != "wall_time"]
    for row, want in zip(rows, expected):
        key = (row.algorithm, row.nmv, row.seed)
        if row.matrix_name == spec_name(_SYM_SPEC) and key in status:
            assert row.status == status[key] and row.cond_after is None, row
            assert row.ratio_after == want[fields.index("ratio_after")]
        else:
            assert _without_wall_time([row]) == [want]


def test_run_experiment_scales_each_computed_cell_once(monkeypatch):
    scaled = _record_scale(monkeypatch)
    rows = run_experiment(_memo_config())
    assert all(r.status == "ok" for r in rows)
    # The distinct cells of test_run_experiment_computes_each_distinct_cell_once.
    assert [m.nrows for m in scaled] == [20] * 44 + [25] * 13


def test_run_experiment_rows_survive_a_short_switch_interval(cond_after_path):
    cfg = _memo_config()
    expected = _without_wall_time(run_experiment(cfg))
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: result.append(run_experiment(cfg)), daemon=True)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert _without_wall_time(result[0]) == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_main_run_records_overflowing_cells_and_finishes(tmp_path, capsys):
    # Squared products of these entries overflow, so the stochastic
    # scalings come out infinite and are rejected as invalid values.
    p = tmp_path / "wide.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 3\n1 1 1e-160\n2 2 1e150\n3 3 1e160\n"
    )
    out = tmp_path / "report.csv"
    cfg_path = _write_config(
        tmp_path / "exp.cfg",
        f"matrix = {p}\nalgorithms = {', '.join(ALGORITHMS)}\nbudgets = 4, 8\nseeds_per_run = 2\n",
    )
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
    assert "cells failed" in capsys.readouterr().err
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(ALGORITHMS) * 2 * 2
    status = {}
    for r in rows:
        status.setdefault(r["algorithm"], set()).add(r["status"])
    for alg in ("snbin", "ssbin"):
        assert status[alg] == {"error: left scaling must be strictly positive and finite"}
    assert status["jacobi"] == status["inf_norm"] == {"ok"}


def test_run_experiment_nan_entry_fails_its_rows_only(tmp_path):
    p = tmp_path / "nan.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 nan\n1 2 2.0\n"
    )
    cfg = ExperimentConfig(
        inputs=[str(p), _NONSYM_SPEC], algorithms=("snbin", "inf_norm"), budgets=(4,), seeds_per_run=2
    ).validate()
    rows = run_experiment(cfg)
    assert len(rows) == 2 * 2 * 2
    for r in rows:
        assert r.status.startswith("error:") == (r.matrix_name == "nan"), r


def test_run_experiment_inf_entry_fails_its_rows_only(tmp_path):
    p = tmp_path / "inf.mtx"
    p.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n2 2 inf\n1 2 2.0\n"
    )
    cfg = ExperimentConfig(
        inputs=[str(p), _NONSYM_SPEC], algorithms=("snbin", "inf_norm"), budgets=(4,), seeds_per_run=2
    ).validate()
    rows = run_experiment(cfg)
    assert len(rows) == 2 * 2 * 2
    for r in rows:
        if r.matrix_name == "inf":
            assert r.status == "error: line 4: non-finite value 'inf'", r
            assert r.ratio_before is None and r.cond_before is None
        else:
            assert r.status == "ok", r


# ----------------------------------------------------------------- main


def test_main_run_non_ascii_file_fails_its_rows_only(tmp_path, capsys):
    p = tmp_path / "accent.mtx"
    p.write_bytes(b"%%MatrixMarket matrix coordinate real general\n% caf\xc3\xa9\n2 2 1\n1 1 1.0\n")
    out = tmp_path / "report.csv"
    cfg_path = _write_config(
        tmp_path / "exp.cfg",
        f"matrix = {p}\ncorpus = family=nonsymmetric_general n=25 density=0.2 seed=22\n"
        "algorithms = snbin, inf_norm\nbudgets = 4\nseeds_per_run = 2\n",
    )
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
    assert "4 cells failed" in capsys.readouterr().err
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2
    for r in rows:
        if r["matrix_name"] == "accent":
            assert r["status"] == "error: line 2: non-ASCII byte 0xc3", r
        else:
            assert r["status"] == "ok", r


def test_main_run_writes_csv(tmp_path, capsys):
    mtx = _sym_mtx(tmp_path)
    out = tmp_path / "report.csv"
    cfg_path = _write_config(
        tmp_path / "exp.cfg",
        f"matrix = {mtx}\nalgorithms = ssbin, jacobi\nbudgets = 4\nseeds_per_run = 2\n",
    )
    code = main(["run", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_FIELDS
    # Each algorithm fills one row per (budget, seed) cell, deterministic
    # algorithms included: 2 algorithms x 1 budget x 2 seeds.
    assert len(rows) == 1 + 4


def test_main_run_stdout_csv(tmp_path, capsys):
    mtx = _identity_mtx(tmp_path)
    cfg_path = _write_config(
        tmp_path / "exp.cfg",
        f"matrix = {mtx}\nalgorithms = jacobi\nbudgets = 4\nseeds_per_run = 1\n",
    )
    assert main(["run", "--config", cfg_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",") == REPORT_FIELDS
    assert len(lines) == 2


def test_main_run_writes_to_the_out_line_of_the_config(tmp_path, capsys):
    mtx = _identity_mtx(tmp_path)
    out = tmp_path / "from_config.csv"
    cfg_path = _write_config(
        tmp_path / "exp.cfg",
        f"matrix = {mtx}\nalgorithms = jacobi\nbudgets = 4\nseeds_per_run = 1\nout = {out}\n",
    )
    assert parse_config(cfg_path).out == str(out)
    assert main(["run", "--config", cfg_path]) == 0
    assert f"wrote 1 rows to {out}" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_FIELDS and len(rows) == 2


def test_main_run_json_format(tmp_path):
    mtx = _identity_mtx(tmp_path)
    out = tmp_path / "report.json"
    cfg_path = _write_config(
        tmp_path / "exp.cfg",
        f"matrix = {mtx}\nalgorithms = inf_norm\nbudgets = 4\nseeds_per_run = 1\n",
    )
    assert main(["run", "--config", cfg_path, "--out", str(out), "--format", "json"]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    assert rows[0]["algorithm"] == "inf_norm"
    assert rows[0]["status"] == "ok"


def test_main_run_stdout_json_matches_out_file(tmp_path, capsys):
    mtx = _sym_mtx(tmp_path)
    out = tmp_path / "report.json"
    cfg_path = _write_config(
        tmp_path / "exp.cfg",
        f"matrix = {mtx}\nalgorithms = ssbin, jacobi\nbudgets = 4\nseeds_per_run = 2\n",
    )
    assert main(["run", "--config", cfg_path, "--format", "json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert main(["run", "--config", cfg_path, "--format", "json", "--out", str(out)]) == 0
    written = json.loads(out.read_text())
    for rows in (printed, written):
        for row in rows:
            row.pop("wall_time")
    assert printed == written
    assert len(printed) == 4


def test_main_run_failure_exit_code(tmp_path, capsys):
    cfg_path = _write_config(
        tmp_path / "exp.cfg",
        "matrix = /nonexistent/never.mtx\nalgorithms = jacobi\nbudgets = 4\nseeds_per_run = 1\n",
    )
    assert main(["run", "--config", cfg_path]) == 1
    assert "failed" in capsys.readouterr().err


def test_main_config_error_exit_code(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "exp.cfg", "algorithms = ssbin\n")
    assert main(["run", "--config", cfg_path]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", "--config", "/nonexistent.cfg"]) == 2


def test_main_gen_and_check(tmp_path, capsys):
    spec_path = _write_config(
        tmp_path / "corpus.txt",
        "family=spd n=15 density=0.4 seed=1\nfamily=nonsymmetric_general n=10 density=0.3 seed=2\n",
    )
    out_dir = tmp_path / "matrices"
    assert main(["gen", "--spec", spec_path, "--out-dir", str(out_dir)]) == 0
    captured = capsys.readouterr()
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["nonsymmetric_general_n10_d0.3_s2.mtx", "spd_n15_d0.4_s1.mtx"]
    assert captured.out.count("wrote") == 2

    m = read_matrix_market(out_dir / files[1])
    assert m.is_symmetric()

    assert main(["check", "--matrix", str(out_dir / files[1])]) == 0
    out = capsys.readouterr().out
    assert "has_support: True" in out
    assert "has_total_support: True" in out
    assert "symmetric: True" in out


def test_main_gen_reports_failures(tmp_path, capsys):
    spec_path = _write_config(
        tmp_path / "corpus.txt",
        "family=spd n=10 density=0.5 seed=1\nfamily=reducible_blocks n=3 density=0.5\n",
    )
    out_dir = tmp_path / "matrices"
    assert main(["gen", "--spec", spec_path, "--out-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert "gave up" in captured.err or "needs n >= 4" in captured.err
    assert len(list(out_dir.iterdir())) == 1


def test_main_gen_bad_spec_file(tmp_path, capsys):
    spec_path = _write_config(tmp_path / "corpus.txt", "family=spd n=oops\n")
    assert main(["gen", "--spec", spec_path, "--out-dir", str(tmp_path / "m")]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_gen_refuses_repeated_file_names_before_writing(tmp_path, capsys):
    spec_path = _write_config(
        tmp_path / "corpus.txt",
        "family=spd n=30 density=0.2\nfamily=spd n=30 density=0.123456\n"
        "family=spd n=30 density=0.1234561\n",
    )
    out_dir = tmp_path / "matrices"
    assert main(["gen", "--spec", spec_path, "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "config error: inputs CorpusSpec(" in captured.err
    assert "share the name 'spd_n30_d0.123456_s0'" in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def test_main_check_missing_file(capsys):
    assert main(["check", "--matrix", "/nonexistent/never.mtx"]) == 2
    assert "error" in capsys.readouterr().err


def _rect_mtx(tmp_path):
    p = tmp_path / "rect.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 3 3\n1 1 1.0\n2 2 2.0\n1 3 1.0\n")
    return str(p)


def test_main_check_nonsquare_is_an_error_exit(tmp_path, capsys):
    assert main(["check", "--matrix", _rect_mtx(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: structure predicates require a square matrix\n"


# -------------------------------------------------------------- history


def test_emit_history_symmetric_includes_variants(tmp_path):
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((8, 8))
    m = SparseMatrix.from_dense(dense + dense.T + 6 * np.eye(8))
    columns, rows = emit_history(m, "ssbin", 6, range(2))
    assert columns == [
        "iteration",
        "seed",
        "log10_ratio",
        "log10_ratio_snbin_sym",
        "log10_ratio_noswitch",
    ]
    assert len(rows) == 2 * 7
    assert rows[0][:2] == [0, 0]
    assert all(len(r) == 5 for r in rows)


def test_emit_history_nonsymmetric_single_series(tmp_path):
    rng = np.random.default_rng(12)
    m = SparseMatrix.from_dense(rng.standard_normal((7, 7)))
    columns, rows = emit_history(m, "snbin", 5, range(3))
    assert columns == ["iteration", "seed", "log10_ratio"]
    assert len(rows) == 3 * 6


def test_main_history_csv(tmp_path, capsys):
    mtx = _sym_mtx(tmp_path, seed=8)
    out = tmp_path / "hist.csv"
    code = main(
        ["history", "--matrix", mtx, "--alg", "ssbin", "--nmv", "5", "--seeds", "2", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][2] == "log10_ratio"
    assert len(rows) == 1 + 2 * 6
    series = [float(r[2]) for r in rows[1:] if r[1] == "0"]
    assert len(series) == 6


def test_main_history_defaults(tmp_path, capsys):
    mtx = _sym_mtx(tmp_path, seed=9, n=6)
    assert main(["history", "--matrix", mtx, "--nmv", "3", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("iteration,seed,log10_ratio")
    assert len(lines) == 1 + 4


def test_main_history_symmetric_alg_on_nonsymmetric_is_config_failure(tmp_path, capsys):
    mtx = _gen_mtx(tmp_path)
    assert main(["history", "--matrix", mtx, "--alg", "ssbin", "--nmv", "4"]) == 2
    assert "symmetric" in capsys.readouterr().err


def test_main_history_zero_row_is_an_error_exit(tmp_path, capsys):
    p = tmp_path / "zr.mtx"
    p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 2 1.0\n")
    assert main(["history", "--matrix", str(p), "--alg", "snbin", "--seeds", "1"]) == 2
    assert capsys.readouterr().err == "error: matrix has a zero row\n"


def test_main_history_nonsquare_is_an_error_exit(tmp_path, capsys):
    assert main(["history", "--matrix", _rect_mtx(tmp_path), "--alg", "snbin", "--seeds", "1"]) == 2
    assert capsys.readouterr().err == "error: stochastic equilibration requires a square operator\n"


def test_main_history_unknown_algorithm(tmp_path, capsys):
    mtx = _gen_mtx(tmp_path, seed=5)
    assert main(["history", "--matrix", mtx, "--alg", "magic"]) == 2
    assert "unknown algorithm" in capsys.readouterr().err
