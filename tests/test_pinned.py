"""Seeded scalings, reports and histories pinned by digest.

Equal seeds must give bitwise-equal scalings, and reports byte-identical
apart from timing, across checkouts and not only within one process. These
digests pin:

- the `left`/`right` bytes of every `TABLE` entry on four small corpus
  matrices;
- the CSV report of `run_experiment` on the same four matrices, with
  `wall_time` zeroed, and on one nonsymmetric matrix large enough that its
  `cond_after` column is computed on the worker thread;
- the `history` CSVs of `ssbin` (with its two comparison columns) and
  `snbin`;
- the outputs of `ssbin`, `snbin` and `estimate_bx` on one symmetric
  sparse matrix large enough that its probe vectors are drawn ahead of the
  products and its products run on the slab layout, and of `snbin` on a
  nonsymmetric one, whose transpose products need their own layout; both
  through the first operator over each matrix and through a later one,
  which reuses the layouts kept with the matrix;
- `sk_exact` on that nonsymmetric matrix and `sym_sk_exact` on the
  symmetric one, whose squared matrices take slab products too;
- the bytes of Matrix Market files as `write_matrix_market` and `gen`
  write them: general with a comment, symmetric, more entries than the
  writer formats at once, no stored entries, and values at the edges of
  float `repr` (1e16, 1e-5, the smallest subnormal, -1.797e308).

What moves the digests: numpy's PCG64 streams (the corpus generator and the
probe source), float64 arithmetic, including the order of every sum,
LAPACK for the `cond_*` report columns, and Python's float `repr` for the
Matrix Market files. A change that means to move them updates the digests
here and says what moved and why.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from equilibrate import _kernels, cli
from equilibrate.cli import ExperimentConfig, main, run_experiment
from equilibrate.corpus import CorpusSpec, generate
from equilibrate.diagnostics import TABLE
from equilibrate.io import write_matrix_market, write_report
from equilibrate.matrix import SparseMatrix, from_sparse
from equilibrate.stochastic import ProbeSource, estimate_bx, snbin, ssbin

BUDGET = 64
SEED = 7

_SPECS = {
    "spd": CorpusSpec("spd", n=60, density=0.08, seed=11, scale_spread=2.0),
    "symmetric_indefinite": CorpusSpec(
        "symmetric_indefinite", n=70, density=0.07, seed=12, scale_spread=2.0
    ),
    "nonsymmetric_general": CorpusSpec(
        "nonsymmetric_general", n=90, density=0.05, seed=13, scale_spread=2.0
    ),
    "reducible_blocks": CorpusSpec(
        "reducible_blocks", n=40, density=0.1, seed=14, scale_spread=2.0
    ),
}

_PINNED_TABLE = {
    "nonsymmetric_general": {
        "snbin": "3056b0b6fa12c7dfed4a17db7c393e4d1580a12db59773893219eb04bb722dc2",
        "sk_exact": "8cd77143ea0c4cda4d43f17f0b3f88b30b2da5db785afe39a1c1f9e920de592a",
        "inf_norm": "0506acd37a5238ac40c1a2fbd95777c93597c1db49d3d99a19630b45a0f8a931",
    },
    "reducible_blocks": {
        "snbin": "6c46fba2e005ca5eee91c26bc094dc113f8ae3502f145af1ea10f2539a43fecf",
        "snbin_sym": "b6126720b8e68b14fc3a20025ad22a539bb63e351eacd824b76e85d60e7924d3",
        "ssbin": "65a412b64a72fcea3218a660e95dbc74cc79e0e2a6c2444d6dfbd4c39d8af5b8",
        "ssbin_noswitch": "c279a269e383cc5e095a562846b9053a27b025daabafd2da44c34c81464b7d37",
        "sk_exact": "daf9ccfe472322e1ffaf92337de11942e9e20c0b95572ddb84bc1afc11466bad",
        "sym_sk_exact": "52c8cca0de0e19ec6609b7f8f6faddf1d0f22408987928bc1db95a163e65a73a",
        "jacobi": "694e9b60761f6f1b6ef1d9b0a44565af831a230183f19329804160d372c81ebd",
        "inf_norm": "4060fa7e7ac3bdeed6e5efb56a4c1d8c4da113d2413d2d3c6c2e16067ec4f71a",
    },
    "spd": {
        "snbin": "1333b8b442679142989c93ba43b1bea9ca4cfba903176b3b3458af0ca43daec0",
        "snbin_sym": "05fccc72c78ca6ae473f7ddca4f4fbfb41f243771ede546a60f727b5f64754da",
        "ssbin": "3b537af16643b4700784b384547c2022bc89d54c3427b5def1b0d521fe5475b6",
        "ssbin_noswitch": "89dc22f69857a539f7b9dd2b095db238481cab3d31505b396641815e7bbfc37a",
        "sk_exact": "a980103a78d93dacc198c489482f1c084c7bd4b504c2b5c0a2c6f0a627325373",
        "sym_sk_exact": "84e658b2a1b4e1823ce8253e234a859d02ec49319dff6fb9a76b3f276c51ba8e",
        "jacobi": "4cfc809b565f8a321fad5c187dc8558c59d9574714971f005ace9a8af6fcaa14",
        "inf_norm": "e51abcb6a6af6083ee25de01d8a8973931ea9e264d74a48b6b86610557b89a28",
    },
    "symmetric_indefinite": {
        "snbin": "f8bb873155dc80335c5369df932c660c2581575e96e9cb252eed7d70340ed3f5",
        "snbin_sym": "0c88047d0f9381e55c76f567453514306287f36d8d9e4f9154353955da54eb6e",
        "ssbin": "90e320332ac179a1b1a736004a40f9039d87c365b5b2ba4bf23fbc9c400fc1c8",
        "ssbin_noswitch": "47db1d0b0346be4b272502454686999f05020dddf01d05188c8085ad094b7d5d",
        "sk_exact": "2316927c9dfe916cf603162aa317d4486877d40df0c8e8a22431ea6f1256a4ea",
        "sym_sk_exact": "36d6ba7b5f498aaa86c6202d4df1352d0fd67fe544fa5c9f581928e16069ebf5",
        "jacobi": "9912bc72bf4a7679edb7b7028a462e44ba7f7ee3add3f3c9406cb2791dcb01e6",
        "inf_norm": "982dae2ae6dbd6a5dd89234224be5d1d1f10364ac107333885e3bc591edc7b5f",
    },
}

_PINNED_LARGE = {
    "ssbin": "0aab16b92f06c26a2d1f126884af79c04419fde9744222b4a324ef9351bfe35d",
    "snbin": "8c9716ab34927c2ec0b30733f4105e623ad4ffd3ae43f945cb068967bfe68bcf",
    "estimate_bx": "a2781ad9def535149ff3354e4bcf4e45c97e0e33f3ebd549249b3b2a2151526e",
}

_PINNED_LARGE_NONSYMMETRIC = "3a870926868ce0c981fe205bb93723613d63d6283cf9545cb1021d88deb8c3a9"

_PINNED_LARGE_EXACT = {
    "sk_exact": "7689b3ea6727612e9a3341465a6ada2c01123d3dddd16d9b6d329f74077f5d1e",
    "sym_sk_exact": "f865072f3a6ab72b5a0ca762b7d69a06482ebba9482e05e45ab39a1e86530925",
}

_PINNED_REPORT = "762f83d237092ce85b5222f4e18795608a925e7c9c1d6d93a7ceb347102330ba"

_PINNED_WORKER_REPORT = "1dd27ff94b8d73e1a44486de7fa91ac2135838205f989e9a0aff1af83ae4c586"

_PINNED_HISTORY = {
    "ssbin": "30b95f614cd447a2f2c8ba2546dd32c94d24bdc29cf9869d3355714ffda0eb76",
    "snbin": "61256f781624ae6769b4057148f5b436ee473d89e5108b0c0d206d0575dbfde7",
}


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _table_digests(family):
    m = generate(_SPECS[family])
    symmetric = m.is_symmetric()
    out = {}
    for name, alg in TABLE.items():
        if alg.symmetric_only and not symmetric:
            continue
        s = alg.scaling(m, BUDGET, SEED)
        out[name] = _digest(s.left, s.right)
    return out


@pytest.mark.parametrize("family", sorted(_SPECS))
def test_table_scalings_are_pinned(family):
    assert _table_digests(family) == _PINNED_TABLE[family]


def _large_matrix():
    # n just above the size from which a worker thread draws the probes;
    # about four entries per row plus a diagonal, made symmetric for ssbin.
    n = 16500
    rng = np.random.default_rng(2024)
    rows = np.concatenate([np.arange(n), rng.integers(0, n, size=2 * n)])
    cols = np.concatenate([np.arange(n), rng.integers(0, n, size=2 * n)])
    vals = rng.standard_normal(rows.size) * 10.0 ** rng.uniform(-2, 2, size=rows.size)
    return SparseMatrix.from_coo(
        n, n, np.concatenate([rows, cols]), np.concatenate([cols, rows]), np.concatenate([vals, vals])
    )


def _large_digests(m):
    assert _kernels.wants_slabs(m)
    op = from_sparse(m)
    s = snbin(op, 8, ProbeSource(SEED))
    return {
        "ssbin": _digest(ssbin(op, 8, ProbeSource(SEED))),
        "snbin": _digest(s.left, s.right),
        "estimate_bx": _digest(estimate_bx(op, np.ones(m.ncols), 8, ProbeSource(SEED))),
    }


def test_drawn_ahead_scalings_are_pinned():
    assert _large_digests(_large_matrix()) == _PINNED_LARGE


def _large_nonsymmetric_matrix():
    # About five entries per row plus a diagonal, all off-diagonal ones in
    # the first half of the columns, so that A and A.T have different slab
    # layouts.
    n = 9000
    rng = np.random.default_rng(2025)
    rows = np.concatenate([np.arange(n), rng.integers(0, n, size=5 * n)])
    cols = np.concatenate([np.arange(n), rng.integers(0, n // 2, size=5 * n)])
    vals = rng.standard_normal(rows.size) * 10.0 ** rng.uniform(-2, 2, size=rows.size)
    return SparseMatrix.from_coo(n, n, rows, cols, vals)


def _transposed_digest(m):
    s = snbin(from_sparse(m), 8, ProbeSource(SEED))
    return _digest(s.left, s.right)


def test_transposed_products_are_pinned():
    m = _large_nonsymmetric_matrix()
    assert _kernels.wants_slabs(m) and not m.is_symmetric()
    assert _transposed_digest(m) == _PINNED_LARGE_NONSYMMETRIC


def test_later_operators_on_one_matrix_are_pinned():
    # The slab layouts stay with the matrix: a second operator reuses the
    # ones the first built and used, and must give the same bits.
    m = _large_matrix()
    _large_digests(m)
    assert _large_digests(m) == _PINNED_LARGE
    m = _large_nonsymmetric_matrix()
    _transposed_digest(m)
    assert _transposed_digest(m) == _PINNED_LARGE_NONSYMMETRIC


def test_exact_scalings_on_the_slab_path_are_pinned():
    digests = {}
    for name, m in (
        ("sk_exact", _large_nonsymmetric_matrix()),
        ("sym_sk_exact", _large_matrix()),
    ):
        assert _kernels.wants_slabs(m)
        s = TABLE[name].scaling(m, 8, SEED)
        digests[name] = _digest(s.left, s.right)
    assert digests == _PINNED_LARGE_EXACT


def _report_digest(cfg, tmp_path):
    rows = [dataclasses.replace(r, wall_time=0.0) for r in run_experiment(cfg.validate())]
    path = tmp_path / "report.csv"
    write_report(rows, "csv", path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_reports_are_pinned(tmp_path):
    cfg = ExperimentConfig(
        inputs=[_SPECS[family] for family in sorted(_SPECS)],
        algorithms=tuple(TABLE),
        budgets=(16, BUDGET),
        seeds_per_run=2,
    )
    assert _report_digest(cfg, tmp_path) == _PINNED_REPORT


def test_run_reports_on_the_worker_path_are_pinned(tmp_path):
    spec = CorpusSpec("nonsymmetric_general", n=520, density=0.02, seed=15, scale_spread=2.0)
    assert spec.n >= cli._GIL_FREE_ROWS
    cfg = ExperimentConfig(
        inputs=[spec], algorithms=("snbin", "sk_exact", "inf_norm"), budgets=(8,), seeds_per_run=1
    )
    assert _report_digest(cfg, tmp_path) == _PINNED_WORKER_REPORT


@pytest.mark.parametrize(
    "algorithm, family", [("ssbin", "spd"), ("snbin", "nonsymmetric_general")]
)
def test_histories_are_pinned(tmp_path, algorithm, family):
    m = generate(_SPECS[family])
    mtx, out = tmp_path / "m.mtx", tmp_path / "history.csv"
    write_matrix_market(m, mtx, symmetric=m.is_symmetric())
    argv = ["history", "--matrix", str(mtx), "--alg", algorithm, "--nmv", str(BUDGET)]
    assert main([*argv, "--seeds", "2", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_HISTORY[algorithm]


_PINNED_WRITTEN = {
    "general_comment": "482f5692ac350c601303261668deeac4bda1287d28f00dce0536744698a533ad",
    "symmetric": "262554e2909076117088ce37791a805be8b7fa698e88c43111bc98bf56ef9ec7",
    "chunks": "7afb4cf66d68f4b104e3d100efca7ccac0997edcddd5efc309750b1736509f03",
    "no_entries": "e87362c11d719150bca1f5ddd5eff6961523dea876b787b5723c80e80fce45d7",
    "edge_values": "a511368b42a328dfd228d4eb0b66ae35bd78f8ffaf0107bba3f35719228c0457",
}

_PINNED_GEN = {
    "permutation_plus_noise_n50_d0.05_sp2_s16.mtx": (
        "fc13eae75e569b6e2531e049d9bbf73a624da64caacd921e02cfb341f7a1b691"
    ),
    "symmetric_indefinite_n70_d0.07_sp2_s12.mtx": (
        "a2fd17239a758f3babea919482c65ae19e71eeabc899022ae3cbf6f62329460f"
    ),
}

_EDGE_VALUES = [1e16, 1e-5, 5e-324, -1.797e308, 0.1, 123456789.0]


def _chunks_matrix():
    # More entries than the writer formats in one chunk (2^14), with values
    # spread over six decades as in the structure_io workload.
    n, nnz = 3000, 40000
    rng = np.random.default_rng(2026)
    vals = rng.standard_normal(nnz) * 10.0 ** rng.uniform(-3, 3, nnz)
    return SparseMatrix.from_coo(n, n, rng.integers(0, n, nnz), rng.integers(0, n, nnz), vals)


def _written_digests(tmp_path):
    empty = np.zeros(0, dtype=np.int64)
    cases = {
        "general_comment": (
            generate(_SPECS["nonsymmetric_general"]),
            {"comment": "pinned general file\nsecond comment line"},
        ),
        "symmetric": (generate(_SPECS["spd"]), {"symmetric": True}),
        "chunks": (_chunks_matrix(), {}),
        "no_entries": (SparseMatrix.from_coo(3, 4, empty, empty, np.zeros(0)), {}),
        "edge_values": (SparseMatrix.from_dense(np.diag(_EDGE_VALUES)), {}),
    }
    out = {}
    for name, (m, kwargs) in cases.items():
        path = tmp_path / f"{name}.mtx"
        write_matrix_market(m, path, **kwargs)
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_written_matrix_market_files_are_pinned(tmp_path):
    assert _written_digests(tmp_path) == _PINNED_WRITTEN


def test_gen_files_are_pinned(tmp_path):
    spec = tmp_path / "corpus.spec"
    spec.write_text(
        "family=symmetric_indefinite n=70 density=0.07 seed=12 scale_spread=2\n"
        "family=permutation_plus_noise n=50 density=0.05 seed=16 scale_spread=2\n"
    )
    assert main(["gen", "--spec", str(spec), "--out-dir", str(tmp_path / "gen")]) == 0
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "gen").glob("*.mtx"))
    }
    assert digests == _PINNED_GEN
