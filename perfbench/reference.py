"""Frozen reference work, timed beside the package's own.

The benchmark host shares its cores with other tenants and runs through
phases, lasting seconds to minutes, in which the same code takes up to a
third less or more time. Absolute times of one workload therefore spread
across runs by more than any useful bound. Each workload instead times a
fixed piece of reference work right next to each of its operations, in
alternating order, and reports the package's time as a multiple of the
reference's: both see the same phase, so the ratio keeps only what the
package itself costs.

The reference work uses numpy alone, never the package, so no change to
the package moves it. The stochastic references are copies of the
package's matrix-free algorithms as first written (the pure-numpy
product kernels included), fed the same probes, so on unchanged code the
ratio sits a little above 1: the package's operator and dispatch overhead.
The other references do the same kinds of work as their workloads (dense
singular values; Matrix Market lines formatted and parsed in Python; a
breadth-first search) without being copies of the package's code.
"""

from collections import deque

import numpy as np


def _omega(k, nmv):
    alpha = (k - 1) / nmv
    return (1.0 - alpha) * 0.5 + alpha * (1.0 / nmv)


def _blend(state, sample, omega):
    return (1.0 - omega) * (state / state.sum()) + omega * (sample / sample.sum())


def ssbin(m, nmv, seed):
    """Symmetric stochastic scaling of ``m``; see `equilibrate.ssbin`."""
    rows, cols, data, n = m.rows, m.indices, m.data, m.ncols
    rng = np.random.Generator(np.random.PCG64(seed))
    d = np.ones(n)
    dp = d
    mirror_until = min(32, nmv // 2)
    for k in range(1, nmv + 1):
        x = rng.standard_normal(n) / np.sqrt(dp)
        y = np.bincount(rows, weights=data * x[cols], minlength=n)
        d = _blend(d, y * y, _omega(k, nmv))
        if k < mirror_until:
            dp = d
        else:
            d, dp = dp, d
    return (d * dp) ** -0.25


def snbin(m, nmv, seed):
    """Two-sided stochastic scaling of ``m``; see `equilibrate.snbin`."""
    rows, cols, data = m.rows, m.indices, m.data
    rng = np.random.Generator(np.random.PCG64(seed))
    rho = np.ones(m.nrows)
    gamma = np.ones(m.ncols)
    for k in range(1, nmv + 1):
        omega = _omega(k, nmv)
        x = rng.standard_normal(m.ncols) / np.sqrt(gamma)
        y = np.bincount(rows, weights=data * x[cols], minlength=m.nrows)
        rho = _blend(rho, y * y, omega)
        x = rng.standard_normal(m.nrows) / np.sqrt(rho)
        z = np.bincount(cols, weights=data * x[rows], minlength=m.ncols)
        gamma = _blend(gamma, z * z, omega)
    return 1.0 / np.sqrt(rho), 1.0 / np.sqrt(gamma)


def singular_values(dense):
    """Singular values of a dense array, as the condition numbers use them."""
    return np.linalg.svd(dense, compute_uv=False)


def write_coordinates(m, path):
    """Matrix Market entry lines of ``m``, one formatted line at a time."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.nrows} {m.ncols} {len(m.data)}\n")
        for i, j, v in zip(m.rows.tolist(), m.indices.tolist(), m.data.tolist()):
            fh.write(f"{i + 1} {j + 1} {v!r}\n")


def read_coordinates(path):
    """Parse what `write_coordinates` wrote into (row, col, value) tuples."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    entries = []
    for text in lines[1:]:
        parts = text.strip().split()
        entries.append((int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])))
    return entries


def reachable(m):
    """Number of rows reached from row 0 through the pattern of ``m``."""
    adj = [m.indices[m.indptr[i] : m.indptr[i + 1]].tolist() for i in range(m.nrows)]
    seen = bytearray(m.nrows)
    seen[0] = 1
    queue = deque([0])
    count = 1
    while queue:
        for v in adj[queue.popleft()]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                queue.append(v)
    return count
