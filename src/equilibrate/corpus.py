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
from dataclasses import dataclass, replace

import numpy as np

from equilibrate.diagnostics import CONDITION_SIZE_CAP
from equilibrate.errors import ConfigError, GenerationFailed, integral
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
# The largest power of ten a construction may form; the 8 decades left
# below the float64 maximum cover row sums.
_MAX_DECADES = 300


@dataclass(frozen=True)
class CorpusSpec:
    """Recipe for one generated matrix.

    density is the target fill fraction of n^2 (dense constructions driven
    by cond_target ignore it unless they are sparsified). scale_spread is
    the mis-scaling severity in decades: generated matrices are wrapped in
    diagonal factors with entries up to 10**scale_spread, which is what
    gives equilibration something to undo. blocks fixes the diagonal block
    sizes of the reducible family. A scale_spread is refused where the
    construction would form a power of ten above 10**300. Only spd,
    symmetric_indefinite and nonsymmetric_general take a cond_target; such
    specs are built dense, so their n is capped at CONDITION_SIZE_CAP.
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
        integral("n", self.n)
        integral("seed", self.seed)
        if self.blocks is not None:
            blocks = tuple(integral("blocks", b) for b in self.blocks)
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
        if self.cond_target is not None and not 1.0 <= self.cond_target < math.inf:
            raise ValueError("cond_target must be finite and at least 1")
        if self.cond_target is not None and self.family not in _CONDITIONED:
            raise ValueError(f"cond_target only applies to the {', '.join(_CONDITIONED)} families")
        if self.cond_target is not None and self.n > CONDITION_SIZE_CAP:
            raise ValueError(f"cond_target specs are dense; n must be at most {CONDITION_SIZE_CAP}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 <= self.scale_spread < math.inf:
            raise ValueError("scale_spread must be finite and nonnegative")
        # The construction forms 10**(e * scale_spread): d_i * d_j in the
        # diagonal mis-scaling, the last block's level, the permutation leads.
        powers = {"reducible_blocks": len(self.blocks or (0, 0)) - 1, "permutation_plus_noise": 1}
        e = powers.get(self.family, 2)
        if e * self.scale_spread > _MAX_DECADES:
            raise ValueError(
                f"scale_spread must be at most {_MAX_DECADES / e:g} for this {self.family} spec"
            )


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
    """Draw ``count`` distinct index pairs (i, j) with i < j, in drawn order."""
    total = n * (n - 1) // 2
    k = rng.choice(total, size=min(count, total), replace=False)
    # Pairs are numbered row by row: row i's n - 1 - i pairs start at starts[i].
    i = np.arange(n)
    starts = i * (2 * n - 1 - i) // 2
    i = np.searchsorted(starts, k, side="right") - 1
    return i, k - starts[i] + i + 1


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
    sigma = 10.0 ** np.linspace(0.0, -math.log10(cond_target), n)
    if signed:
        signs = rng.choice([-1.0, 1.0], size=n)
        signs[0] = 1.0
        if n > 1:
            signs[1] = -1.0
        sigma = sigma * signs
    return sigma


def _permutation_union_parts(rng, spec, dominant_decades=None):
    """Union of random permutations; the first carries the large values."""
    n = spec.n
    count = max(2, int(round(spec.density * n)))
    rows = np.tile(np.arange(n), count)
    cols = np.concatenate([rng.permutation(n) for _ in range(count)])
    if dominant_decades is None:
        vals = rng.standard_normal(rows.size)
    else:
        signs = rng.choice([-1.0, 1.0], size=n)
        lead = signs * 10.0 ** rng.uniform(0.0, dominant_decades, size=n)
        rest = 1e-3 * rng.standard_normal(rows.size - n)
        vals = np.concatenate([lead, rest])
    return rows, cols, vals


def _dense_parts(rng, spec, symmetric):
    """U diag(sigma) V^T with a planted spectrum (V = U when symmetric)."""
    n = spec.n
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = u if symmetric else np.linalg.qr(rng.standard_normal((n, n)))[0]
    sigma = _shaped_spectrum(rng, n, spec.cond_target, spec.family == "symmetric_indefinite")
    a = (u * sigma) @ v.T
    if symmetric:
        a = (a + a.T) / 2.0
    elif spec.density < 1.0:
        # Keep the largest entries, then force a symmetric pattern with a
        # full diagonal so every survivor still lies on a permutation.
        target = max(3 * n, int(round(spec.density * n * n)))
        flat = np.argsort(np.abs(a), axis=None)[::-1][:target]
        mask = np.zeros((n, n), dtype=bool)
        mask.flat[flat] = True
        mask |= mask.T
        np.fill_diagonal(mask, True)
        a = np.where(mask, a, 0.0)
    rows, cols = np.nonzero(a)
    return rows, cols, a[rows, cols]


def _reducible_parts(rng, spec):
    """Diagonal spd blocks, block k lifted by 10**(k * scale_spread)."""
    blocks = spec.blocks
    if blocks is None:
        if spec.n < 4:
            raise GenerationFailed("reducible family needs n >= 4 or explicit blocks")
        half = spec.n // 2
        blocks = (half, spec.n - half)
    parts = []
    for index, size in enumerate(blocks):
        sub = replace(spec, family="spd", n=size, blocks=None, scale_spread=0.0)
        rows, cols, vals = _sym_sparse_parts(rng, sub, definite=True)
        offset = sum(blocks[:index])
        parts.append((rows + offset, cols + offset, vals * 10.0 ** (index * spec.scale_spread)))
    rows, cols, vals = (np.concatenate(arrays) for arrays in zip(*parts))
    return rows, cols, vals, _Witness(blocks=blocks)


def _build(rng, spec):
    """The matrix a spec describes and the witness of its total support."""
    n, family = spec.n, spec.family
    if family == "symmetric_indefinite" and n < 2:
        raise GenerationFailed("symmetric_indefinite needs n >= 2")
    symmetric = family != "nonsymmetric_general"
    witness = _Witness()
    if spec.cond_target is not None:
        rows, cols, vals = _dense_parts(rng, spec, symmetric)
    elif family in ("spd", "symmetric_indefinite"):
        rows, cols, vals = _sym_sparse_parts(rng, spec, definite=family == "spd")
    elif family == "reducible_blocks":
        rows, cols, vals, witness = _reducible_parts(rng, spec)
    else:
        lead = spec.scale_spread if family == "permutation_plus_noise" else None
        rows, cols, vals = _permutation_union_parts(rng, spec, dominant_decades=lead)
        witness = _Witness(perms=cols.reshape(-1, n))
    if family in _CONDITIONED:
        vals, d = _diag_mis_scale(rng, rows, cols, vals, n, spec.scale_spread, symmetric)
        if family == "spd" and spec.cond_target is None:
            witness = _Witness(dominance=d)
    return SparseMatrix.from_coo(n, n, rows, cols, vals), witness


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
    if not np.isfinite(m.data).all():
        return "matrix holds a non-finite value"
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
