"""Graph partitioning and interior/interface block reordering.

The partitioner is recursive BFS (level-set) bisection on the symmetrized
adjacency pattern; the bisection returns the parts in subdomain order.  A
partition is its assignment array, vertex -> subdomain number, and nothing
else; `classify_and_reorder` derives the rest from it in one pass over the
stored entries.  Vertices with a cross-subdomain entry
become interface vertices; the system is reordered so each subdomain's
interior variables are contiguous and all interface variables come last,
yielding the 2x2 block form

    [ B  E ]        B block diagonal over subdomain interiors,
    [ F  C ]        C carrying the interface couplings.

Every cross-subdomain entry joins two interface vertices, so the same pass
also gives Cg = C - C0, the entries of C outside its diagonal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .sparse import Permutation, canonical, check_count, extract_submatrix, permute_symmetric


@dataclass
class PartitionedSystem:
    """Reordered system in interior/interface block form.

    All blocks live in the reordered index space: interiors of subdomain 0,
    ..., interiors of subdomain s-1, then interfaces of subdomain 0, ...,
    interfaces of subdomain s-1.
    """

    matrix: sp.csr_matrix          # the full reordered matrix
    perm: Permutation              # old index -> new index
    p: int                         # interior dimension
    q: int                         # interface dimension
    interior_sizes: np.ndarray     # per-subdomain interior counts
    interface_sizes: np.ndarray    # per-subdomain interface counts
    B: sp.csr_matrix = field(repr=False)
    E: sp.csr_matrix = field(repr=False)
    F: sp.csr_matrix = field(repr=False)
    C: sp.csr_matrix = field(repr=False)
    Cg: sp.csr_matrix = field(repr=False)   # C - C0, with no stored zero

    @property
    def n(self) -> int:
        return self.p + self.q

    @property
    def num_parts(self) -> int:
        return len(self.interior_sizes)

    @property
    def assignment(self) -> np.ndarray:
        """The vertex -> subdomain map this system was reordered from."""
        sizes = np.concatenate([self.interior_sizes, self.interface_sizes])
        return np.repeat(np.tile(np.arange(self.num_parts), 2), sizes)[self.perm.forward]


def _adjacency(A) -> sp.csr_matrix:
    """Symmetrized off-diagonal pattern of A (boolean CSR)."""
    A = canonical(A)
    pattern = sp.csr_matrix(
        (np.ones_like(A.data, dtype=np.int8), A.indices, A.indptr), shape=A.shape
    )
    pattern = pattern + pattern.T
    pattern.setdiag(0)
    pattern.eliminate_zeros()
    pattern.sort_indices()
    return pattern


def _bfs_order(adj, vertices) -> np.ndarray:
    """BFS traversal order of the subgraph induced by sorted `vertices`.

    Roots are the smallest-index unvisited vertices; a disconnected
    component is exhausted before the traversal restarts.  One compiled BFS
    runs from a virtual vertex linked to each component's smallest vertex;
    components never share a queue entry, so a stable sort by component
    restores the one-component-at-a-time order.
    """
    vertices = np.asarray(vertices)
    k = vertices.size
    sub = adj[vertices][:, vertices]
    sub.sort_indices()
    _, labels = connected_components(sub, directed=False)
    roots = np.unique(labels, return_index=True)[1]   # smallest vertex per label
    graph = sp.csr_matrix(
        (np.ones(sub.nnz + roots.size), np.concatenate([sub.indices, np.sort(roots)]),
         np.append(sub.indptr, sub.nnz + roots.size)), shape=(k + 1, k + 1))
    order = breadth_first_order(graph, k, directed=True, return_predecessors=False)[1:]
    order = order[np.argsort(roots[labels[order]], kind="stable")]
    return vertices[order]


def _bisect(adj, vertices, parts) -> list[np.ndarray]:
    """Split sorted `vertices` into `parts` sorted vertex sets, returned in
    subdomain order: the first (parts + 1) // 2 sets split the leading share
    of the BFS order, the others the rest."""
    if parts == 1:
        return [vertices]
    left_parts, right_parts = (parts + 1) // 2, parts // 2
    order = _bfs_order(adj, vertices)
    split = int(round(len(order) * left_parts / parts))
    # keep both sides large enough to host their share of parts
    split = min(max(split, left_parts), len(order) - right_parts)
    left, right = np.sort(order[:split]), np.sort(order[split:])
    return _bisect(adj, left, left_parts) + _bisect(adj, right, right_parts)


def partition_graph(A, num_parts: int) -> np.ndarray:
    """Partition A's adjacency graph into `num_parts` balanced subdomains:
    the subdomain number, 0 to num_parts - 1, of every vertex, numbered in
    the order `_bisect` returns the parts."""
    A = canonical(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    n = A.shape[0]
    check_count(num_parts, "num_parts", 1)
    if num_parts > n:
        raise ValueError(f"cannot split {n} vertices into {num_parts} subdomains")
    adj = _adjacency(A)
    assignment = np.empty(n, dtype=np.int64)
    for k, vertices in enumerate(_bisect(adj, np.arange(n, dtype=np.int64), num_parts)):
        assignment[vertices] = k
    return assignment


def classify_and_reorder(A, assignment) -> PartitionedSystem:
    """Classify vertices as interior/interface and build the block system.

    `assignment[i]` is vertex i's subdomain number; the subdomains are
    numbered 0 to its max, and a number no vertex takes has empty blocks."""
    A = canonical(A)
    n = A.shape[0]
    part = np.asarray(assignment)
    if part.shape != (n,) or part.dtype.kind not in "iu" or np.any(part < 0):
        raise ValueError(f"assignment must give each of the {n} vertices a subdomain >= 0")
    part = part.astype(np.int64, copy=False)
    s = int(part.max(initial=-1)) + 1

    # interface <=> an endpoint of a stored entry that couples two subdomains;
    # marking both endpoints gives the same set as the symmetrized pattern
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    cross = part[rows] != part[A.indices]
    is_interface = np.zeros(n, dtype=bool)
    is_interface[rows[cross]] = True
    is_interface[A.indices[cross]] = True

    # interiors by subdomain, then interfaces by subdomain, index order within each;
    # the sorted order is the new -> old map, a bijection by construction
    new_order = np.lexsort((part, is_interface))
    forward = np.empty(n, dtype=np.int64)
    forward[new_order] = np.arange(n, dtype=np.int64)
    perm = Permutation(forward=forward, inverse=new_order)

    reordered = permute_symmetric(A, perm)
    interior_sizes = np.bincount(part[~is_interface], minlength=s)
    interface_sizes = np.bincount(part[is_interface], minlength=s)
    p = int(interior_sizes.sum())
    q = n - p
    lo = np.arange(p)
    hi = np.arange(p, n)
    # the cross-subdomain entries renumbered into C are its entries off the
    # diagonal blocks; stored zeros are dropped, as C - C0 keeps none
    kept = cross & (A.data != 0)
    into_C = forward - p
    Cg = sp.csr_matrix((A.data[kept], (into_C[rows[kept]], into_C[A.indices[kept]])), shape=(q, q))
    return PartitionedSystem(
        matrix=reordered,
        perm=perm,
        p=p,
        q=q,
        interior_sizes=interior_sizes,
        interface_sizes=interface_sizes,
        B=extract_submatrix(reordered, lo, lo),
        E=extract_submatrix(reordered, lo, hi),
        F=extract_submatrix(reordered, hi, lo),
        C=extract_submatrix(reordered, hi, hi),
        Cg=canonical(Cg),
    )
