"""Reproducible generated test matrices.

Five families cover the shapes the rest of the package cares about: sparse
spd, sparse symmetric indefinite, nonsymmetric with full structural rank,
block-diagonal reducible composites, and dominant-permutation matrices with
small fill. Every family is built so that total support holds by
construction: symmetric patterns carry a full diagonal (any off-diagonal
nonzero extends to a permutation through its mirror and the diagonal), and
nonsymmetric patterns are unions of permutations. Each construction hands
back a witness of its guarantee (the permutations it drew, its block sizes,
its mis-scaling), and generation checks the matrix against that witness in
O(nnz) at every size, retrying with a reseeded generator before giving up.
"""

import math
import operator
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from equilibrate.diagnostics import CONDITION_SIZE_CAP
from equilibrate.errors import ConfigError, GenerationFailed
from equilibrate.matrix import SparseMatrix

FAMILIES = (
    "spd",
    "symmetric_indefinite",
    "nonsymmetric_general",
    "reducible_blocks",
    "permutation_plus_noise",
)
# The families that can plant a condition number.
_CONDITIONED = ("spd", "symmetric_indefinite", "nonsymmetric_general")

_MAX_ATTEMPTS = 20


@dataclass(frozen=True)
class CorpusSpec:
    """Recipe for one generated matrix.

    density is the target fill fraction of n^2 (dense constructions driven
    by cond_target ignore it unless they are sparsified). scale_spread is
    the mis-scaling severity in decades: generated matrices are wrapped in
    diagonal factors with entries up to 10**scale_spread, which is what
    gives equilibration something to undo. blocks fixes the diagonal block
    sizes of the reducible family. Only spd, symmetric_indefinite and
    nonsymmetric_general take a cond_target; such specs are built dense, so
    their n is capped at CONDITION_SIZE_CAP.
    """

    family: str
    n: int = 0
    density: float = 0.02
    cond_target: float | None = None
    seed: int = 0
    scale_spread: float = 0.0
    blocks: tuple | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        _integral("n", self.n)
        _integral("seed", self.seed)
        if self.blocks is not None:
            blocks = tuple(_integral("blocks", b) for b in self.blocks)
            if len(blocks) < 2 or any(b < 1 for b in blocks):
                raise ValueError("blocks needs at least two positive sizes")
            if self.family != "reducible_blocks":
                raise ValueError("blocks only applies to the reducible family")
            object.__setattr__(self, "blocks", blocks)
            if self.n == 0:
                object.__setattr__(self, "n", sum(blocks))
            elif self.n != sum(blocks):
                raise ValueError("n disagrees with sum(blocks)")
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        if self.cond_target is not None and not self.cond_target >= 1.0:
            raise ValueError("cond_target must be at least 1")
        if self.cond_target is not None and self.family not in _CONDITIONED:
            raise ValueError(f"cond_target only applies to the {', '.join(_CONDITIONED)} families")
        if self.cond_target is not None and self.n > CONDITION_SIZE_CAP:
            raise ValueError(f"cond_target specs are dense; n must be at most {CONDITION_SIZE_CAP}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.scale_spread < 0:
            raise ValueError("scale_spread must be nonnegative")


def _integral(field, value):
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{field} must be integral, got {value!r}") from None


def spec_name(spec):
    """Compact deterministic name, used for file names and report rows."""
    parts = [spec.family, f"n{spec.n}"]
    if spec.blocks is not None:
        parts.append("b" + "x".join(str(b) for b in spec.blocks))
    parts.append(f"d{spec.density:g}")
    if spec.cond_target is not None:
        parts.append(f"c{spec.cond_target:g}")
    if spec.scale_spread:
        parts.append(f"sp{spec.scale_spread:g}")
    parts.append(f"s{spec.seed}")
    return "_".join(parts)


def parse_spec_line(line):
    """Parse one ``key=value ...`` spec line into a CorpusSpec."""
    fields = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep or not value:
            raise ConfigError(f"expected key=value, got {token!r}")
        if key in fields:
            raise ConfigError(f"duplicate key {key!r}")
        fields[key] = value
    if "family" not in fields:
        raise ConfigError("spec line is missing family=")
    kwargs = {"family": fields.pop("family")}
    try:
        if "n" in fields:
            kwargs["n"] = int(fields.pop("n"))
        if "density" in fields:
            kwargs["density"] = float(fields.pop("density"))
        if "cond_target" in fields:
            kwargs["cond_target"] = float(fields.pop("cond_target"))
        if "seed" in fields:
            kwargs["seed"] = int(fields.pop("seed"))
        if "scale_spread" in fields:
            kwargs["scale_spread"] = float(fields.pop("scale_spread"))
        if "blocks" in fields:
            kwargs["blocks"] = tuple(int(b) for b in fields.pop("blocks").split(","))
    except ValueError as exc:
        raise ConfigError(f"bad spec value: {exc}") from exc
    if fields:
        raise ConfigError(f"unknown spec keys: {', '.join(sorted(fields))}")
    try:
        return CorpusSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def read_spec_file(path):
    """Read a spec file: one spec per line, blanks and # comments skipped."""
    specs = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                specs.append(parse_spec_line(line))
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    if not specs:
        raise ConfigError(f"{path}: no corpus specs found")
    return specs


def _upper_pairs(rng, n, count):
    """Draw ``count`` distinct index pairs (i, j) with i < j, in first-drawn order."""
    count = min(count, n * (n - 1) // 2)
    # Distinct keys i * n + j in first-drawn order. A round costs only its own
    # draws, so the thousands of small rounds near full density stay cheap;
    # pairs from zip, not a dict.fromkeys copy, keep the peak memory lower.
    kept = {}
    while len(kept) < count:
        draw = max(64, int(2.5 * (count - len(kept))))
        i = rng.integers(0, n, size=draw)
        j = rng.integers(0, n, size=draw)
        kept.update(zip((i * n + j)[i < j].tolist(), repeat(None)))
    keys = np.fromiter(kept, dtype=np.int64, count=len(kept))[:count]
    return keys // n, keys % n


@dataclass(frozen=True)
class _Witness:
    """Why a built matrix has total support, in a form checked in O(nnz).

    Without ``perms`` the pattern is symmetric with a full nonzero diagonal,
    so each off-diagonal (i, j) lies on the transposition (i j) plus the
    diagonal. With ``perms`` (one permutation per row, p[i] the column of
    row i) the pattern is the union of those permutations. ``blocks`` are
    diagonal block sizes no entry crosses. ``dominance`` is the mis-scaling
    d under which D^-1 M D^-1 is strictly diagonally dominant with a
    positive diagonal, which makes a symmetric M positive definite.
    """

    perms: np.ndarray | None = None
    blocks: tuple | None = None
    dominance: np.ndarray | None = None


def _diag_mis_scale(rng, entries_rows, entries_cols, values, n, spread, symmetric):
    """Mis-scaled values and the left factor (all ones when spread is 0)."""
    if spread <= 0:
        return values, np.ones(n)
    d_left = 10.0 ** rng.uniform(-spread, spread, size=n)
    d_right = d_left if symmetric else 10.0 ** rng.uniform(-spread, spread, size=n)
    # Group the two diagonal factors first: their product commutes bitwise,
    # so mirrored entries stay exactly equal when the scaling is symmetric.
    return values * (d_left[entries_rows] * d_right[entries_cols]), d_left


def _sym_sparse_parts(rng, spec, definite):
    """Symmetric pattern with a full diagonal; SDD diagonal when definite."""
    n = spec.n
    target_off_pairs = max(0, int(round(spec.density * n * n - n)) // 2)
    ui, uj = _upper_pairs(rng, n, target_off_pairs)
    off = rng.standard_normal(ui.size)
    rows = np.concatenate([ui, uj])
    cols = np.concatenate([uj, ui])
    vals = np.concatenate([off, off])
    if definite:
        dom = np.bincount(rows, weights=np.abs(vals), minlength=n)
        diag = dom + rng.uniform(0.5, 1.5, size=n)
    else:
        diag = rng.standard_normal(n)
        diag += np.where(diag >= 0, 0.3, -0.3)
        diag[0] = abs(diag[0])
        if n > 1:
            diag[1] = -abs(diag[1])
    rows = np.concatenate([rows, np.arange(n)])
    cols = np.concatenate([cols, np.arange(n)])
    vals = np.concatenate([vals, diag])
    return rows, cols, vals


def _shaped_spectrum(rng, n, cond_target, signed):
    exponents = np.linspace(0.0, -math.log10(cond_target), n)
    sigma = 10.0**exponents
    if signed:
        signs = rng.choice([-1.0, 1.0], size=n)
        signs[0] = 1.0
        if n > 1:
            signs[1] = -1.0
        sigma = sigma * signs
    return sigma


def _sym_dense(rng, spec, definite):
    q = np.linalg.qr(rng.standard_normal((spec.n, spec.n)))[0]
    sigma = _shaped_spectrum(rng, spec.n, spec.cond_target, signed=not definite)
    a = (q * sigma) @ q.T
    a = (a + a.T) / 2.0
    if spec.scale_spread > 0:
        d = 10.0 ** rng.uniform(-spec.scale_spread, spec.scale_spread, size=spec.n)
        a = a * (d[:, None] * d)
    return SparseMatrix.from_dense(a)


def _permutation_union_parts(rng, spec, dominant_decades=None):
    """Union of random permutations; the first carries the large values."""
    n = spec.n
    count = max(2, int(round(spec.density * n)))
    rows = np.tile(np.arange(n), count)
    cols = np.concatenate([rng.permutation(n) for _ in range(count)])
    if dominant_decades is None:
        vals = rng.standard_normal(rows.size)
    else:
        lead = rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(
            0.0, max(dominant_decades, 0.0), size=n
        )
        rest = 1e-3 * rng.standard_normal(rows.size - n)
        vals = np.concatenate([lead, rest])
    return rows, cols, vals


def _build_nonsymmetric(rng, spec):
    if spec.cond_target is None:
        rows, cols, vals = _permutation_union_parts(rng, spec)
        vals, _ = _diag_mis_scale(rng, rows, cols, vals, spec.n, spec.scale_spread, False)
        m = SparseMatrix.from_coo(spec.n, spec.n, rows, cols, vals)
        return m, _Witness(perms=cols.reshape(-1, spec.n))
    n = spec.n
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    sigma = _shaped_spectrum(rng, n, spec.cond_target, signed=False)
    a = (u * sigma) @ v.T
    if spec.density < 1.0:
        # Keep the largest entries, then force a symmetric pattern with a
        # full diagonal so every survivor still lies on a permutation.
        target = max(3 * n, int(round(spec.density * n * n)))
        flat = np.argsort(np.abs(a), axis=None)[::-1][:target]
        mask = np.zeros((n, n), dtype=bool)
        mask.flat[flat] = True
        mask |= mask.T
        np.fill_diagonal(mask, True)
        a = np.where(mask, a, 0.0)
    if spec.scale_spread > 0:
        dl = 10.0 ** rng.uniform(-spec.scale_spread, spec.scale_spread, size=n)
        dr = 10.0 ** rng.uniform(-spec.scale_spread, spec.scale_spread, size=n)
        a = a * dr * dl[:, None]
    return SparseMatrix.from_dense(a), _Witness()


def _build_reducible(rng, spec):
    blocks = spec.blocks
    if blocks is None:
        if spec.n < 4:
            raise GenerationFailed("reducible family needs n >= 4 or explicit blocks")
        half = spec.n // 2
        blocks = (half, spec.n - half)
    rows_all, cols_all, vals_all = [], [], []
    offset = 0
    for index, size in enumerate(blocks):
        sub = replace(spec, family="spd", n=size, blocks=None, scale_spread=0.0)
        rows, cols, vals = _sym_sparse_parts(rng, sub, definite=True)
        level = 10.0 ** (index * spec.scale_spread)
        rows_all.append(rows + offset)
        cols_all.append(cols + offset)
        vals_all.append(vals * level)
        offset += size
    m = SparseMatrix.from_coo(
        spec.n,
        spec.n,
        np.concatenate(rows_all),
        np.concatenate(cols_all),
        np.concatenate(vals_all),
    )
    return m, _Witness(blocks=blocks)


def _build(rng, spec):
    """The matrix a spec describes and the witness of its total support."""
    if spec.family == "symmetric_indefinite" and spec.n < 2:
        raise GenerationFailed("symmetric_indefinite needs n >= 2")
    if spec.family in ("spd", "symmetric_indefinite"):
        definite = spec.family == "spd"
        if spec.cond_target is not None:
            return _sym_dense(rng, spec, definite), _Witness()
        rows, cols, vals = _sym_sparse_parts(rng, spec, definite)
        vals, d = _diag_mis_scale(rng, rows, cols, vals, spec.n, spec.scale_spread, True)
        m = SparseMatrix.from_coo(spec.n, spec.n, rows, cols, vals)
        return m, _Witness(dominance=d if definite else None)
    if spec.family == "nonsymmetric_general":
        return _build_nonsymmetric(rng, spec)
    if spec.family == "reducible_blocks":
        return _build_reducible(rng, spec)
    rows, cols, vals = _permutation_union_parts(
        rng, spec, dominant_decades=spec.scale_spread
    )
    m = SparseMatrix.from_coo(spec.n, spec.n, rows, cols, vals)
    return m, _Witness(perms=cols.reshape(-1, spec.n))


def _is_permutation_union(m, perms):
    """Whether each row of ``perms`` is a permutation and m's pattern is their union."""
    on_perm = np.zeros(m.nnz, dtype=bool)
    for p in perms:
        seen = np.zeros(m.nrows, dtype=bool)
        seen[p] = True
        # Stored keys are unique, so n hits mean every (i, p[i]) is stored.
        hits = p[m.rows] == m.indices
        if not seen.all() or np.count_nonzero(hits) != m.nrows:
            return False
        on_perm |= hits
    return bool(on_perm.all())


def _is_dominant(m, d):
    """Whether each row of D^-1 M D^-1 has a diagonal above its off-diagonal mass."""
    a = m.data / (d[m.rows] * d[m.indices])
    on_diag = m.rows == m.indices
    diag = np.zeros(m.nrows)
    diag[m.rows[on_diag]] = a[on_diag]
    off = np.bincount(m.rows, weights=np.where(on_diag, 0.0, np.abs(a)), minlength=m.nrows)
    return bool(np.all(diag > off))


def _verify(spec, m, witness):
    n = m.nrows
    if witness.perms is not None:
        if not _is_permutation_union(m, witness.perms):
            return "pattern is not the union of its permutations"
    else:
        if spec.family == "nonsymmetric_general":
            t = m.transpose()
            if not (np.array_equal(t.rows, m.rows) and np.array_equal(t.indices, m.indices)):
                return "pattern is not symmetric"
        elif not m.is_symmetric():
            return "matrix is not symmetric"
        if np.count_nonzero(m.rows == m.indices) != n:
            return "diagonal is not full"
    if witness.blocks is not None:
        block = np.repeat(np.arange(len(witness.blocks)), witness.blocks)
        if np.any(block[m.rows] != block[m.indices]):
            return "an entry crosses a block boundary"
    if witness.dominance is not None and not _is_dominant(m, witness.dominance):
        return "diagonal dominance certificate failed"
    if spec.family == "spd" and spec.cond_target is not None:
        try:
            np.linalg.cholesky(m.to_dense())
        except np.linalg.LinAlgError:
            return "factorization certificate failed"
    if spec.family == "symmetric_indefinite":
        if spec.cond_target is not None:
            w = np.linalg.eigvalsh(m.to_dense())
            if not (w[0] < 0.0 < w[-1]):
                return "spectrum came out one-signed"
        else:
            diag = m.diagonal()
            if not (diag.max() > 0.0 and diag.min() < 0.0):
                return "no indefiniteness certificate on the diagonal"
    return None


def generate(spec):
    """Build the matrix a spec describes.

    Deterministic: equal specs produce bitwise-identical matrices. Each
    attempt draws from a generator seeded by (seed, attempt); construction
    makes total support hold by design and records a witness of it, and
    verification checks the matrix against that witness, at every size,
    before the matrix is released. Persistent verification failures raise
    GenerationFailed.
    """
    failure = "no attempts made"
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.Generator(np.random.PCG64([spec.seed, attempt]))
        try:
            m, witness = _build(rng, spec)
        except np.linalg.LinAlgError as exc:
            failure = str(exc)
            continue
        failure = _verify(spec, m, witness)
        if failure is None:
            return m
    raise GenerationFailed(f"gave up on {spec_name(spec)}: {failure}")
