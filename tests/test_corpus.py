import hashlib
from dataclasses import replace

import numpy as np
import pytest

from equilibrate import corpus
from equilibrate.cli import main
from equilibrate.corpus import (
    FAMILIES,
    CorpusSpec,
    _build,
    _upper_pairs,
    _verify,
    generate,
    parse_spec_line,
    read_spec_file,
    spec_name,
)
from equilibrate.diagnostics import CONDITION_SIZE_CAP, ratio
from equilibrate.errors import ConfigError, GenerationFailed
from equilibrate.matrix import SparseMatrix
from equilibrate.structure import has_support, has_total_support, is_irreducible


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown family"):
        CorpusSpec(family="hilbert", n=5)
    with pytest.raises(ValueError, match="n must be positive"):
        CorpusSpec(family="spd")
    with pytest.raises(ValueError, match="density"):
        CorpusSpec(family="spd", n=5, density=0.0)
    with pytest.raises(ValueError, match="density"):
        CorpusSpec(family="spd", n=5, density=1.5)
    with pytest.raises(ValueError, match="cond_target"):
        CorpusSpec(family="spd", n=5, cond_target=0.5)
    with pytest.raises(ValueError, match="seed"):
        CorpusSpec(family="spd", n=5, seed=-1)
    with pytest.raises(ValueError, match="scale_spread"):
        CorpusSpec(family="spd", n=5, scale_spread=-1.0)
    with pytest.raises(ValueError, match="n must be integral"):
        CorpusSpec(family="spd", n=2.5)
    with pytest.raises(ValueError, match="seed must be integral"):
        CorpusSpec(family="spd", n=5, seed=1.5)
    CorpusSpec(family="spd", n=np.int64(5), seed=np.uint32(3))
    for family in ("reducible_blocks", "permutation_plus_noise"):
        with pytest.raises(ValueError, match="cond_target only applies"):
            CorpusSpec(family=family, n=20, density=0.3, cond_target=1e6)
    CorpusSpec(family="spd", n=CONDITION_SIZE_CAP, cond_target=10.0)
    with pytest.raises(ValueError, match="cond_target specs are dense"):
        CorpusSpec(family="nonsymmetric_general", n=CONDITION_SIZE_CAP + 1, cond_target=10.0)


def test_blocks_resolution():
    spec = CorpusSpec(family="reducible_blocks", blocks=(3, 4, 5))
    assert spec.n == 12
    spec2 = CorpusSpec(family="reducible_blocks", n=7, blocks=(3, 4))
    assert spec2.blocks == (3, 4)
    with pytest.raises(ValueError, match="disagrees"):
        CorpusSpec(family="reducible_blocks", n=8, blocks=(3, 4))
    with pytest.raises(ValueError, match="at least two"):
        CorpusSpec(family="reducible_blocks", blocks=(5,))
    with pytest.raises(ValueError, match="only applies"):
        CorpusSpec(family="spd", n=7, blocks=(3, 4))
    with pytest.raises(ValueError, match="blocks must be integral"):
        CorpusSpec(family="reducible_blocks", blocks=(3.7, 4))
    assert CorpusSpec(family="reducible_blocks", blocks=(np.int64(3), 4)).blocks == (3, 4)


def test_spec_name_is_deterministic_and_distinct():
    a = CorpusSpec(family="spd", n=50, density=0.1, seed=3, scale_spread=2.0)
    assert spec_name(a) == "spd_n50_d0.1_sp2_s3"
    b = CorpusSpec(family="reducible_blocks", blocks=(4, 6), density=0.5, seed=0)
    assert spec_name(b) == "reducible_blocks_n10_b4x6_d0.5_s0"
    c = CorpusSpec(family="spd", n=50, density=0.1, cond_target=1e4, seed=3)
    assert "c10000" in spec_name(c)
    assert spec_name(a) != spec_name(c)


def test_parse_spec_line_round_trip():
    spec = parse_spec_line("family=spd n=40 density=0.05 seed=7 scale_spread=1.5")
    assert spec == CorpusSpec(family="spd", n=40, density=0.05, seed=7, scale_spread=1.5)
    spec2 = parse_spec_line("family=reducible_blocks blocks=3,4 density=0.4")
    assert spec2.blocks == (3, 4) and spec2.n == 7
    spec3 = parse_spec_line("family=spd n=9 cond_target=1e3")
    assert spec3.cond_target == 1000.0


@pytest.mark.parametrize(
    "line,message",
    [
        ("family=spd n", "key=value"),
        ("family=spd n=", "key=value"),
        ("n=40", "missing family"),
        ("family=spd n=40 n=50", "duplicate"),
        ("family=spd n=abc", "bad spec value"),
        ("family=spd n=40 color=red", "unknown spec keys"),
        ("family=nope n=40", "unknown family"),
        (f"family=spd n={CONDITION_SIZE_CAP + 1} cond_target=10", "at most 2000"),
        ("family=reducible_blocks n=20 density=0.3 cond_target=1e6", "cond_target only applies"),
        ("family=permutation_plus_noise n=20 density=0.2 cond_target=1e6", "cond_target only applies"),
        ("family=spd n=20 density=0.2 scale_spread=nan", "scale_spread must be finite"),
        ("family=spd n=20 density=0.2 scale_spread=inf", "scale_spread must be finite"),
        ("family=spd n=20 density=0.2 cond_target=inf", "cond_target must be finite"),
        ("family=spd n=20 density=0.2 cond_target=nan", "cond_target must be finite"),
        ("family=spd n=20 density=0.2 scale_spread=400", "scale_spread must be at most 150 "),
        ("family=symmetric_indefinite n=20 scale_spread=150.5", "scale_spread must be at most 150 "),
        ("family=nonsymmetric_general n=20 scale_spread=151", "scale_spread must be at most 150 "),
        ("family=reducible_blocks n=20 scale_spread=400", "scale_spread must be at most 300 "),
        ("family=reducible_blocks blocks=5,5,5,5 scale_spread=104", "scale_spread must be at most 100 "),
        ("family=permutation_plus_noise n=20 scale_spread=300.5", "scale_spread must be at most 300 "),
    ],
)
def test_parse_spec_line_errors(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_spec_line(line)


_REFUSED_VALUES = {
    "scale_spread=nan": "scale_spread must be finite",
    "scale_spread=inf": "scale_spread must be finite",
    "cond_target=inf": "cond_target must be finite",
    # 10**(2 * 400) overflows the diagonal mis-scaling.
    "scale_spread=400": "scale_spread must be at most 150 for this spd spec",
}


@pytest.mark.parametrize("command", ["gen", "run"])
@pytest.mark.parametrize("value", list(_REFUSED_VALUES))
def test_a_non_finite_spec_line_is_a_config_error(tmp_path, capsys, command, value):
    line = f"family=spd n=20 density=0.2 {value}"
    path = tmp_path / "input.txt"
    if command == "gen":
        path.write_text(line + "\n")
        argv = ["gen", "--spec", str(path), "--out-dir", str(tmp_path / "out")]
    else:
        path.write_text(f"corpus = {line}\nalgorithms = snbin\n")
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "report.csv")]
    assert main(argv) == 2
    assert f"config error: {path}:1: {_REFUSED_VALUES[value]}" in capsys.readouterr().err


def test_read_spec_file(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text(
        "# comment\n\nfamily=spd n=30 density=0.2\nfamily=permutation_plus_noise n=20 density=0.15\n"
    )
    specs = read_spec_file(p)
    assert [s.family for s in specs] == ["spd", "permutation_plus_noise"]


def test_read_spec_file_reports_line_number(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("family=spd n=30 density=0.2\nfamily=spd n=oops\n")
    with pytest.raises(ConfigError, match=r"bad\.txt:2:"):
        read_spec_file(p)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n")
    with pytest.raises(ConfigError, match="no corpus specs"):
        read_spec_file(empty)


def test_generation_is_bitwise_deterministic():
    spec = CorpusSpec(family="nonsymmetric_general", n=60, density=0.1, seed=5, scale_spread=1.0)
    a = generate(spec)
    b = generate(spec)
    assert a == b
    different = generate(
        CorpusSpec(family="nonsymmetric_general", n=60, density=0.1, seed=6, scale_spread=1.0)
    )
    assert a != different


@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_generates_with_support(family):
    spec = CorpusSpec(family=family, n=40, density=0.2, seed=1, scale_spread=1.0)
    m = generate(spec)
    assert m.nrows == m.ncols == 40
    assert has_support(m)
    assert has_total_support(m)


def test_spd_family_is_positive_definite():
    m = generate(CorpusSpec(family="spd", n=35, density=0.2, seed=2, scale_spread=2.0))
    assert m.is_symmetric()
    np.linalg.cholesky(m.to_dense())


def test_spd_cond_target_hits_requested_conditioning():
    for target in (1e2, 1e6):
        m = generate(CorpusSpec(family="spd", n=30, density=1.0, cond_target=target, seed=3))
        w = np.linalg.eigvalsh(m.to_dense())
        assert w[0] > 0
        assert w[-1] / w[0] == pytest.approx(target, rel=1e-6)


def test_symmetric_indefinite_has_both_signs():
    m = generate(
        CorpusSpec(family="symmetric_indefinite", n=30, density=0.3, seed=4, scale_spread=1.0)
    )
    assert m.is_symmetric()
    diag = m.diagonal()
    assert diag.max() > 0 and diag.min() < 0
    dense_spec = CorpusSpec(
        family="symmetric_indefinite", n=25, density=1.0, cond_target=1e4, seed=5
    )
    w = np.linalg.eigvalsh(generate(dense_spec).to_dense())
    assert w[0] < 0 < w[-1]


def test_reducible_family_is_reducible_with_blocks():
    spec = CorpusSpec(family="reducible_blocks", blocks=(12, 18), density=0.3, seed=6, scale_spread=3.0)
    m = generate(spec)
    assert m.is_symmetric()
    assert not is_irreducible(m)
    dense = m.to_dense()
    assert np.all(dense[:12, 12:] == 0.0)
    assert np.all(dense[12:, :12] == 0.0)
    # The second block sits scale_spread decades above the first.
    lo = np.abs(dense[:12, :12]).max()
    hi = np.abs(dense[12:, 12:]).max()
    assert hi / lo > 100.0


def test_permutation_family_is_sparse_and_badly_scaled():
    spec = CorpusSpec(
        family="permutation_plus_noise", n=80, density=0.05, seed=7, scale_spread=3.0
    )
    m = generate(spec)
    assert m.nnz <= 4 * 80
    assert ratio(m) > 100.0


def test_scale_spread_inflates_norm_ratio():
    flat = generate(CorpusSpec(family="spd", n=50, density=0.2, seed=8))
    spread = generate(CorpusSpec(family="spd", n=50, density=0.2, seed=8, scale_spread=2.5))
    assert ratio(spread) > 10 * ratio(flat)


@pytest.mark.parametrize(
    "family,n,message",
    [
        ("reducible_blocks", 3, "reducible family needs n >= 4"),
        ("symmetric_indefinite", 1, "symmetric_indefinite needs n >= 2"),
    ],
)
def test_reducible_too_small_without_blocks_fails(family, n, message):
    with pytest.raises(GenerationFailed, match=message):
        generate(CorpusSpec(family=family, n=n, density=0.5))


def test_generation_gives_up_when_every_attempt_fails_verification():
    # No attempt at this condition number survives the Cholesky certificate.
    spec = CorpusSpec("spd", n=30, density=1.0, cond_target=1e20, seed=1)
    message = r"gave up on spd_n30_d1_c1e\+20_s1: factorization certificate failed"
    with pytest.raises(GenerationFailed, match=message):
        generate(spec)


@pytest.mark.parametrize(
    "family,parts",
    [
        ("spd", "_sym_sparse_parts"),
        ("permutation_plus_noise", "_permutation_union_parts"),
        ("reducible_blocks", "_sym_sparse_parts"),
    ],
)
def test_generation_never_releases_a_non_finite_matrix(monkeypatch, family, parts):
    # Every attempt's construction hands back an infinite value.
    build = getattr(corpus, parts)

    def overflowing(*args, **kwargs):
        rows, cols, vals = build(*args, **kwargs)
        vals[0] = np.inf
        return rows, cols, vals

    monkeypatch.setattr(corpus, parts, overflowing)
    spec = CorpusSpec(family, n=20, density=0.2, scale_spread=2.0)
    message = f"gave up on {spec_name(spec)}: matrix holds a non-finite value"
    with pytest.raises(GenerationFailed, match=message):
        generate(spec)


@pytest.mark.parametrize(
    "line",
    [
        "family=spd n=20 density=0.2 scale_spread=150",
        "family=symmetric_indefinite n=20 density=0.2 scale_spread=150",
        "family=nonsymmetric_general n=20 density=0.2 scale_spread=150",
        "family=spd n=40 density=1 cond_target=1e6 scale_spread=150",
        "family=symmetric_indefinite n=40 density=1 cond_target=1e6 scale_spread=150",
        "family=nonsymmetric_general n=40 density=0.3 cond_target=1e6 scale_spread=150",
        "family=reducible_blocks n=20 density=0.2 scale_spread=300",
        "family=reducible_blocks blocks=5,5,5,5 density=0.6 scale_spread=100",
        "family=permutation_plus_noise n=20 density=0.2 scale_spread=300",
    ],
)
def test_the_largest_accepted_spread_generates(line):
    # The test configuration turns a numpy overflow warning into an error.
    m = generate(parse_spec_line(line))
    assert np.isfinite(m.data).all()


@pytest.mark.parametrize("n,density", [(1, 0.02), (3, 0.01)])
def test_spec_without_off_diagonal_pairs_generates_a_diagonal(n, density):
    m = generate(CorpusSpec(family="spd", n=n, density=density))
    assert m.nnz == n
    assert np.array_equal(m.rows, m.indices)
    assert np.all(m.data > 0.0)


def test_large_generation_has_total_support():
    spec = CorpusSpec(family="spd", n=700, density=0.01, seed=9, scale_spread=1.0)
    m = generate(spec)
    assert m.nrows == 700
    assert has_support(m)
    assert has_total_support(m)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 37, 400])
def test_upper_pairs_are_distinct_and_clamped(n):
    total = n * (n - 1) // 2
    every = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
    # Every count from 0 to past saturation; only saturated draws at n = 400.
    for count in range(total + 3) if n < 400 else (total, total + 1):
        i, j = _upper_pairs(np.random.default_rng(count), n, count)
        keys = i * n + j
        assert keys.size == min(count, total)
        assert np.all((0 <= i) & (i < j) & (j < n))
        assert np.unique(keys).size == keys.size
        if count >= total:
            assert np.array_equal(np.sort(keys), every)


def _first_attempt(spec):
    """The matrix and witness of generate's first attempt at ``spec``."""
    return _build(np.random.Generator(np.random.PCG64([spec.seed, 0])), spec)


def _witness_specs(family, seed):
    specs = [
        CorpusSpec(family, n=60, density=0.1, seed=seed, scale_spread=2.0),
        CorpusSpec(family, n=300, density=0.02, seed=seed),
    ]
    if family in ("spd", "symmetric_indefinite", "nonsymmetric_general"):
        specs.append(CorpusSpec(family, n=50, density=0.2, cond_target=1e4, seed=seed))
    return specs


@pytest.mark.parametrize("family", FAMILIES)
def test_witness_verdict_agrees_with_total_support(family):
    for seed in range(4):
        for spec in _witness_specs(family, seed):
            m, witness = _first_attempt(spec)
            assert (_verify(spec, m, witness) is None) == has_total_support(m)


def _drop_entry(m, k):
    keep = np.arange(m.nnz) != k
    return SparseMatrix.from_coo(m.nrows, m.ncols, m.rows[keep], m.indices[keep], m.data[keep])


def _drop_diagonal_entry(m):
    return _drop_entry(m, np.flatnonzero(m.rows == m.indices)[3])


def _drop_permutation_coordinate(m):
    return _drop_entry(m, m.nnz // 2)


def _with_unit_entries(m, rows, cols):
    data = np.append(m.data, np.ones(len(rows)))
    return SparseMatrix.from_coo(
        m.nrows, m.ncols, np.append(m.rows, rows), np.append(m.indices, cols), data
    )


def _add_block_crossing_entry(m):
    return _with_unit_entries(m, [0, m.nrows - 1], [m.nrows - 1, 0])


def _add_stray_entry(m):
    """One more entry, in row 0, with its mirror left out."""
    free = np.setdiff1d(np.arange(m.ncols), m.indices[m.rows == 0])[0]
    return _with_unit_entries(m, [0], [free])


def _weaken_dominant_diagonal(m):
    row = m.rows[m.rows != m.indices][0]
    shrink = np.where((m.rows == row) & (m.indices == row), 1e-6, 1.0)
    return SparseMatrix.from_coo(m.nrows, m.ncols, m.rows, m.indices, m.data * shrink)


@pytest.mark.parametrize(
    "spec,corrupt,message",
    [
        (
            CorpusSpec("spd", n=40, density=0.2, seed=1, scale_spread=2.0),
            _drop_diagonal_entry,
            "diagonal is not full",
        ),
        (
            CorpusSpec("symmetric_indefinite", n=40, density=0.2, seed=1),
            _drop_diagonal_entry,
            "diagonal is not full",
        ),
        (
            CorpusSpec("reducible_blocks", n=40, density=0.2, seed=1),
            _drop_diagonal_entry,
            "diagonal is not full",
        ),
        (
            CorpusSpec("nonsymmetric_general", n=40, density=0.2, cond_target=1e3, seed=1),
            _drop_diagonal_entry,
            "diagonal is not full",
        ),
        (
            CorpusSpec("nonsymmetric_general", n=40, density=0.1, seed=1, scale_spread=2.0),
            _drop_permutation_coordinate,
            "pattern is not the union of its permutations",
        ),
        (
            CorpusSpec("permutation_plus_noise", n=40, density=0.1, seed=1, scale_spread=2.0),
            _drop_permutation_coordinate,
            "pattern is not the union of its permutations",
        ),
        (
            CorpusSpec("nonsymmetric_general", n=40, density=0.1, seed=1, scale_spread=2.0),
            _add_stray_entry,
            "pattern is not the union of its permutations",
        ),
        (
            CorpusSpec("nonsymmetric_general", n=40, density=0.2, cond_target=1e3, seed=1),
            _add_stray_entry,
            "pattern is not symmetric",
        ),
        (
            CorpusSpec("spd", n=40, density=0.2, seed=1, scale_spread=2.0),
            _add_stray_entry,
            "matrix is not symmetric",
        ),
        (
            CorpusSpec("reducible_blocks", blocks=(10, 20, 10), density=0.2, seed=1),
            _add_block_crossing_entry,
            "an entry crosses a block boundary",
        ),
        (
            CorpusSpec("spd", n=40, density=0.2, seed=1, scale_spread=2.0),
            _weaken_dominant_diagonal,
            "diagonal dominance certificate failed",
        ),
        (
            CorpusSpec("spd", n=40, density=0.2, seed=1),
            _weaken_dominant_diagonal,
            "diagonal dominance certificate failed",
        ),
    ],
)
def test_verify_rejects_a_corrupted_matrix(spec, corrupt, message):
    m, witness = _first_attempt(spec)
    assert _verify(spec, m, witness) is None
    assert _verify(spec, corrupt(m), witness) == message


def test_verify_rejects_a_witness_that_is_not_a_permutation():
    spec = CorpusSpec("permutation_plus_noise", n=40, density=0.1, seed=1)
    m, witness = _first_attempt(spec)
    perms = witness.perms.copy()
    perms[0, 0] = perms[0, 1]
    # The matrix is rebuilt on the union of the bad rows, so only the
    # permutation check can tell.
    rows = np.tile(np.arange(spec.n), len(perms))
    union = SparseMatrix.from_coo(spec.n, spec.n, rows, perms.ravel(), np.ones(rows.size))
    assert _verify(spec, union, replace(witness, perms=perms)) == (
        "pattern is not the union of its permutations"
    )


def test_large_sparse_spd_is_verified_without_densifying(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the generator densified a sparse matrix")

    monkeypatch.setattr(SparseMatrix, "to_dense", refuse)
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    spec = CorpusSpec("spd", n=20000, density=5e-4, seed=3, scale_spread=2.0)
    m, witness = _first_attempt(spec)
    assert _verify(spec, m, witness) is None
    assert generate(spec) == m


# Digests of seeded output: `gen` files for every family at the benchmark's
# structure_io sizes, and the stored arrays (what `==` compares) of two
# n = 20000 matrices. They pin numpy's PCG64 streams and float64 arithmetic
# as well as the generator, so a numpy upgrade that changes either moves them.
_PINNED_SPECS = (
    "family=spd n=400 density=0.02 seed=101 scale_spread=2\n"
    "family=symmetric_indefinite n=300 density=0.03 seed=102 scale_spread=2\n"
    "family=nonsymmetric_general n=500 density=0.01 seed=103 scale_spread=2\n"
    "family=reducible_blocks n=200 density=0.05 seed=104 scale_spread=2\n"
    "family=permutation_plus_noise n=600 density=0.008 seed=105 scale_spread=2\n"
    "family=spd n=60 density=1 seed=106 scale_spread=2\n"
)
_PINNED_FILES = {
    "nonsymmetric_general_n500_d0.01_sp2_s103.mtx":
        "174019cd48b84bc47daa7824e20fd99ca47dfe3803b2732cc04b69e140350141",
    "permutation_plus_noise_n600_d0.008_sp2_s105.mtx":
        "b34ee5c9563f578ca383daca0f7111a09c38d0c14cd30f03143882ba1aeb8ebb",
    "reducible_blocks_n200_d0.05_sp2_s104.mtx":
        "dd517d24c589ea1aa9f895bbbcd51080683f3fa262376e1bee07f525cbacac43",
    "spd_n400_d0.02_sp2_s101.mtx":
        "c23948648bb1898e24bc33459ba29a720d78015f8967230537cbb472cf37d1e1",
    "spd_n60_d1_sp2_s106.mtx":
        "a0ab803c1d664df8fe4d39dd20f3828522f283e1333c6959ad713cbbc86b623a",
    "symmetric_indefinite_n300_d0.03_sp2_s102.mtx":
        "def98459905209747e7ead3dafa224ffb9581ba1c7921ce04f78eb459839cc78",
}
_PINNED_LARGE = {
    ("symmetric_indefinite", 7): "5014a1458b3dd8edb73bd154a05d4322b1f2ea739b3736770fff30123aa8144d",
    ("nonsymmetric_general", 8): "efd68cca63963be5594b8db55897ab2dc2cb77a1b57dd11da184eb60e8f73001",
}


def test_gen_output_is_pinned(tmp_path, capsys):
    spec_path = tmp_path / "corpus.spec"
    spec_path.write_text(_PINNED_SPECS)
    assert main(["gen", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 0
    out = tmp_path / "out"
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert written == _PINNED_FILES


@pytest.mark.parametrize("family,seed", sorted(_PINNED_LARGE))
def test_large_generation_is_pinned(family, seed):
    m = generate(CorpusSpec(family, n=20000, density=5e-4, seed=seed, scale_spread=2.0))
    digest = hashlib.sha256()
    for array in (m.rows, m.indices, m.data):
        digest.update(array.tobytes())
    assert digest.hexdigest() == _PINNED_LARGE[family, seed]
