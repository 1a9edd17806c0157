"""Graph partitioning and interior/interface block reordering.

The partitioner is recursive BFS (level-set) bisection on the symmetrized
adjacency pattern.  After partitioning, vertices with a cross-subdomain edge
become interface vertices; the system is reordered so each subdomain's
interior variables are contiguous and all interface variables come last,
yielding the 2x2 block form

    [ B  E ]        B block diagonal over subdomain interiors,
    [ F  C ]        C carrying the interface couplings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .sparse import Permutation, canonical, extract_submatrix, permute_symmetric


@dataclass(frozen=True)
class PartitionSpec:
    """Assignment of every vertex to one of `num_parts` subdomains."""

    num_parts: int
    assignment: np.ndarray


@dataclass
class PartitionedSystem:
    """Reordered system in interior/interface block form.

    All blocks live in the reordered index space: interiors of subdomain 0,
    ..., interiors of subdomain s-1, then interfaces of subdomain 0, ...,
    interfaces of subdomain s-1.
    """

    matrix: sp.csr_matrix          # the full reordered matrix
    perm: Permutation              # old index -> new index
    num_parts: int
    p: int                         # interior dimension
    q: int                         # interface dimension
    interior_sizes: np.ndarray     # per-subdomain interior counts
    interface_sizes: np.ndarray    # per-subdomain interface counts
    B: sp.csr_matrix = field(repr=False, default=None)
    E: sp.csr_matrix = field(repr=False, default=None)
    F: sp.csr_matrix = field(repr=False, default=None)
    C: sp.csr_matrix = field(repr=False, default=None)
    partition: PartitionSpec = field(repr=False, default=None)   # the split reordered here

    @property
    def n(self) -> int:
        return self.p + self.q


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


def _bisect(adj, vertices, parts, next_id, assignment):
    if parts == 1:
        assignment[vertices] = next_id
        return next_id + 1
    left_parts = (parts + 1) // 2
    right_parts = parts - left_parts
    order = _bfs_order(adj, vertices)
    split = int(round(len(order) * left_parts / parts))
    # keep both sides large enough to host their share of parts
    split = min(max(split, left_parts), len(order) - right_parts)
    left = np.sort(order[:split])
    right = np.sort(order[split:])
    next_id = _bisect(adj, left, left_parts, next_id, assignment)
    return _bisect(adj, right, right_parts, next_id, assignment)


def partition_graph(A, num_parts: int) -> PartitionSpec:
    """Partition A's adjacency graph into `num_parts` balanced subdomains."""
    A = canonical(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    n = A.shape[0]
    if num_parts < 1:
        raise ValueError("number of subdomains must be >= 1")
    if num_parts > n:
        raise ValueError(f"cannot split {n} vertices into {num_parts} subdomains")
    adj = _adjacency(A)
    assignment = np.full(n, -1, dtype=np.int64)
    _bisect(adj, np.arange(n, dtype=np.int64), num_parts, 0, assignment)
    return PartitionSpec(num_parts=num_parts, assignment=assignment)


def classify_and_reorder(A, spec: PartitionSpec) -> PartitionedSystem:
    """Classify vertices as interior/interface and build the block system."""
    A = canonical(A)
    n = A.shape[0]
    if spec.assignment.shape[0] != n:
        raise ValueError("partition does not cover the matrix")
    adj = _adjacency(A)
    part = spec.assignment
    s = spec.num_parts

    # interface <=> some symmetrized off-diagonal neighbor in another subdomain
    degrees = np.diff(adj.indptr)
    row_of_entry = np.repeat(np.arange(n), degrees)
    cross = part[adj.indices] != part[row_of_entry]
    is_interface = np.zeros(n, dtype=bool)
    is_interface[row_of_entry[cross]] = True

    idx = np.arange(n)
    interior_groups = [idx[(part == i) & ~is_interface] for i in range(s)]
    interface_groups = [idx[(part == i) & is_interface] for i in range(s)]
    new_order = np.concatenate(interior_groups + interface_groups)
    forward = np.empty(n, dtype=np.int64)
    forward[new_order] = np.arange(n, dtype=np.int64)
    perm = Permutation.from_forward(forward)

    reordered = permute_symmetric(A, perm)
    interior_sizes = np.array([g.size for g in interior_groups], dtype=np.int64)
    interface_sizes = np.array([g.size for g in interface_groups], dtype=np.int64)
    p = int(interior_sizes.sum())
    q = n - p
    lo = np.arange(p)
    hi = np.arange(p, n)
    return PartitionedSystem(
        matrix=reordered,
        perm=perm,
        num_parts=s,
        p=p,
        q=q,
        interior_sizes=interior_sizes,
        interface_sizes=interface_sizes,
        B=extract_submatrix(reordered, lo, lo) if p else sp.csr_matrix((0, 0)),
        E=extract_submatrix(reordered, lo, hi) if p and q else sp.csr_matrix((p, q)),
        F=extract_submatrix(reordered, hi, lo) if p and q else sp.csr_matrix((q, p)),
        C=extract_submatrix(reordered, hi, hi) if q else sp.csr_matrix((0, 0)),
        partition=spec,
    )


def save_assignment_json(spec: PartitionSpec, path) -> None:
    """Dump the vertex -> subdomain map as a JSON array."""
    with open(path, "w") as fh:
        json.dump([int(x) for x in spec.assignment], fh)
