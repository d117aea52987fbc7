"""Executable scalability predicates on sparsity patterns.

Support (structural nonsingularity) is a perfect matching in the bipartite
row-column graph; total support additionally puts every nonzero on some
perfect matching, and is exactly the pattern condition under which a square
nonnegative matrix can be scaled to doubly stochastic form. Irreducibility
is strong connectivity of the directed pattern graph.
"""

from collections import deque
from dataclasses import dataclass

from equilibrate.errors import DimensionMismatch


@dataclass(frozen=True)
class StructureReport:
    has_support: bool
    has_total_support: bool
    is_irreducible: bool


def _adjacency(m):
    return [m.indices[m.indptr[i] : m.indptr[i + 1]].tolist() for i in range(m.nrows)]


def _hopcroft_karp(adj, n_left, n_right):
    """Maximum bipartite matching; returns (size, match_left, match_right)."""
    inf = n_left + n_right + 1
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [inf] * n_left
    size = 0
    while True:
        queue = deque()
        for u in range(n_left):
            if match_l[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        free_dist = inf
        while queue:
            u = queue.popleft()
            if dist[u] >= free_dist:
                continue
            for v in adj[u]:
                w = match_r[v]
                if w < 0:
                    if free_dist == inf:
                        free_dist = dist[u] + 1
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if free_dist == inf:
            return size, match_l, match_r
        for u in range(n_left):
            if match_l[u] < 0 and _augment_layered(u, adj, match_l, match_r, dist, inf):
                size += 1


def _augment_layered(root, adj, match_l, match_r, dist, inf):
    # Iterative DFS along the BFS layering; cols[k] is the edge into path[k + 1].
    path = [root]
    iters = [iter(adj[root])]
    cols = []
    while path:
        u = path[-1]
        advanced = False
        for v in iters[-1]:
            w = match_r[v]
            if w < 0:
                cols.append(v)
                for pu, pv in zip(path, cols):
                    match_l[pu] = pv
                    match_r[pv] = pu
                return True
            if dist[w] == dist[u] + 1:
                cols.append(v)
                path.append(w)
                iters.append(iter(adj[w]))
                advanced = True
                break
        if not advanced:
            dist[u] = inf  # dead end for this phase
            path.pop()
            iters.pop()
            if cols:
                cols.pop()
    return False


def _require_square(m):
    if m.nrows != m.ncols:
        raise DimensionMismatch("structure predicates require a square matrix")


def has_support(m):
    """True iff the pattern admits a positive diagonal under a column permutation."""
    _require_square(m)
    size, _, _ = _hopcroft_karp(_adjacency(m), m.nrows, m.ncols)
    return size == m.nrows


def has_total_support(m):
    """True iff every nonzero lies on some positive diagonal."""
    _require_square(m)
    adj = _adjacency(m)
    return _total_support(adj, _hopcroft_karp(adj, m.nrows, m.ncols))


def _total_support(adj, matching):
    """Total support of the pattern ``adj``, given a maximum matching of it.

    Given one perfect matching, a nonzero (i, j) off it lies on another
    exactly when it closes an alternating cycle. Orienting each such nonzero
    as row i -> row match(j), that means i and match(j) share a strongly
    connected component (the Dulmage-Mendelsohn fine decomposition), so the
    test is one matching plus one O(nnz) component pass.
    """
    n = len(adj)
    size, match_l, match_r = matching
    if size < n:
        return False
    succ = [[match_r[j] for j in adj[i] if j != match_l[i]] for i in range(n)]
    comp = _strong_components(succ)
    return all(comp[i] == comp[k] for i in range(n) for k in succ[i])


def _strong_components(succ):
    """Component label per node of a directed graph (iterative Tarjan)."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = bytearray(n)
    stack = []
    counter = 0
    labels = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp[w] = labels
                        if w == v:
                            break
                    labels += 1
    return comp


def is_irreducible(m):
    """True iff the directed graph of the pattern is strongly connected."""
    _require_square(m)
    return _one_component(_adjacency(m))


def _one_component(adj):
    # Strongly connected iff every node is in Tarjan's first component, 0.
    return not any(_strong_components(adj))


def structure_report(m):
    """All three predicates at once, from one adjacency and one matching."""
    _require_square(m)
    adj = _adjacency(m)
    matching = _hopcroft_karp(adj, m.nrows, m.ncols)
    return StructureReport(
        has_support=matching[0] == m.nrows,
        has_total_support=_total_support(adj, matching),
        is_irreducible=_one_component(adj),
    )
