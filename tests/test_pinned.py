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
        "snbin": "70eb2abb0200f35748fde67909720d43db64af1b71f4e1e4dcf0f7386b18b98f",
        "snbin_sym": "6de675760b069e4691f0dc647678c377adbc28ea2f86bb0cb18c78d3d444a0bf",
        "ssbin": "c2f6db284ac0da99696bd763ff5f44b3593d83a02c60da3ba4fc930249ccf69e",
        "ssbin_noswitch": "af9e36d0c0f6bcdc385ec4a3432dd9504f81acf166410748cc67d62668f5aa96",
        "sk_exact": "ed71775840b056b1ff425371f08627dc31ffb233343d71cd2b0afcf254611a30",
        "sym_sk_exact": "900d205322c89e3ef823493be341402408106ee3afc732d844640a821a960bf5",
        "jacobi": "da3632fd06340964c0f4a1968f256b358e979ef4c6dffd861c1eb8c981a45e0c",
        "inf_norm": "ed45fd921a30aeeeb7ae0aa16c5202e2f84185112a367fe9fceaefa4b29d1dd7",
    },
    "spd": {
        "snbin": "247f88680faa7c6f0afba525aae54775be9d75214a056bbdcb787f4663f9eed8",
        "snbin_sym": "2ff0237d6c0e5f181a7d4a9bcebd0a6348363693b7cdee573ea79ba6a6661a4e",
        "ssbin": "8acf0e1b6f3f00ec2581b5745101bcbcb0c2f242fdec83a1e605541cd0887fc6",
        "ssbin_noswitch": "0119a420505799206c59279831428d047273fbe719f175dedffb578760d1fed3",
        "sk_exact": "76389f9fbd91e991fa7baa526163013e62574c8501af711d4d648da1ec541054",
        "sym_sk_exact": "e657f903afc18976edb56f0f774f66af58e01756c70834f7a30deeb450a79321",
        "jacobi": "8af9c5d55508ce130c03a98e13980d4ccec512932fc88505da04f36312f5e76a",
        "inf_norm": "6b41ca33f191a54243ba2d945c16322708a179ac99489b7c70042f515ef545dd",
    },
    "symmetric_indefinite": {
        "snbin": "1bb085ef114a9cccfe5b4b54d1971305db1cdb8c86ffc91ed798dcdcfa9de9ec",
        "snbin_sym": "6e0a1d2b25f53358c4814b9940f81f50d8a216dff196bb5ce21adfe90d303b4a",
        "ssbin": "f257d9b4f17590a5246945b3cac80d005eed81b0bee96172c165d1d99cf9b73e",
        "ssbin_noswitch": "58acae4abfead6e081e0821683296be1b1e81ea02311000215797f24c111c8c2",
        "sk_exact": "9e78d9118be6fe1d7dd030d7690bb207f69f2062d021eed018080744f66180cd",
        "sym_sk_exact": "755daab1f3b59c51f19089e58e2f49ffb2cc8e38deac50c569746c2641e2dde9",
        "jacobi": "12db5e32a0f1c51e4204bd47f06f7c4d1b276a4a6e438a6c696749007a20ee40",
        "inf_norm": "5e95378ecf4b70e6aaa71ffd47adb8ccfe16ee30bf27f73ebff3b3e0bea542a0",
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

_PINNED_REPORT = "67dc37a7e5d4bf4547c9a0efef23f5d554c0cbc239e2761f4bd2e90ec57acadd"

_PINNED_WORKER_REPORT = "1dd27ff94b8d73e1a44486de7fa91ac2135838205f989e9a0aff1af83ae4c586"

_PINNED_HISTORY = {
    "ssbin": "fd9ce85b29ba0726dd553f0958a56687026648c03d636acc72861a6aa1770190",
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
    "symmetric": "6663ac5f68b5af0fed9bf18b7676f0eb89528caaf6ae67c53097ef5ca661f526",
    "chunks": "7afb4cf66d68f4b104e3d100efca7ccac0997edcddd5efc309750b1736509f03",
    "no_entries": "e87362c11d719150bca1f5ddd5eff6961523dea876b787b5723c80e80fce45d7",
    "edge_values": "a511368b42a328dfd228d4eb0b66ae35bd78f8ffaf0107bba3f35719228c0457",
}

_PINNED_GEN = {
    "permutation_plus_noise_n50_d0.05_sp2_s16.mtx": (
        "fc13eae75e569b6e2531e049d9bbf73a624da64caacd921e02cfb341f7a1b691"
    ),
    "symmetric_indefinite_n70_d0.07_sp2_s12.mtx": (
        "0fe167937dc503d98ddc67e200b6280181df571a08aab36e09b7e0839fd0f35b"
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
