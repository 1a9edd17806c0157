import numpy as np
import pytest
import scipy.sparse as sp

from pslr.krylov import gmres
from pslr.partition import (
    _adjacency,
    _bfs_order,
    classify_and_reorder,
    partition_graph,
    save_assignment_json,
)
from pslr.preconditioner import PslrConfig, build
from pslr.problems import ProblemSpec, laplacian3d
from pslr.sparse import permute_symmetric

from conftest import lap1d, partitioned, random_sparse


class TestPartitionGraph:
    def test_covers_all_vertices(self):
        part = partition_graph(lap1d(20), 4)
        assert part.dtype == np.int64 and part.shape == (20,)
        assert set(np.unique(part)) == {0, 1, 2, 3}

    def test_single_part(self):
        part = partition_graph(lap1d(5), 1)
        np.testing.assert_array_equal(part, np.zeros(5))

    def test_path_graph_split_contiguous(self):
        # BFS from vertex 0 on a path visits in index order, so bisection
        # of a 1D Laplacian gives two contiguous halves
        part = partition_graph(lap1d(6), 2)
        np.testing.assert_array_equal(part, [0, 0, 0, 1, 1, 1])

    def test_balance(self):
        for s in (2, 3, 5, 8):
            part = partition_graph(laplacian3d(ProblemSpec(8, 8, 8)), s)
            counts = np.bincount(part, minlength=s)
            assert counts.min() >= 0.5 * counts.max()

    def test_disconnected_components(self):
        # two disjoint 3-paths: each component should become one part
        A = sp.block_diag([lap1d(3), lap1d(3)], format="csr")
        part = partition_graph(A, 2)
        assert len(set(part[:3])) == 1
        assert len(set(part[3:])) == 1
        assert part[0] != part[3]

    def test_too_many_parts(self):
        with pytest.raises(ValueError):
            partition_graph(lap1d(3), 4)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            partition_graph(sp.csr_matrix((3, 4)), 2)

    @pytest.mark.parametrize("seed", range(12))
    def test_bfs_order_contract(self, seed):
        """Queue BFS over the induced subgraph: smallest unvisited vertex as root,
        neighbours in index order, each component exhausted before the next."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 120))
        adj = _adjacency(sp.random(n, n, density=float(rng.choice([0.005, 0.02, 0.08])),
                                   random_state=seed, format="csr") + sp.identity(n))
        vertices = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        member = set(vertices.tolist())
        want, seen = [], set()
        for root in vertices.tolist():
            if root in seen:
                continue
            seen.add(root)
            queue = [root]
            for v in queue:
                want.append(v)
                for w in adj.indices[adj.indptr[v]:adj.indptr[v + 1]].tolist():
                    if w in member and w not in seen:
                        seen.add(w)
                        queue.append(w)
        np.testing.assert_array_equal(_bfs_order(adj, vertices), want)

    def test_deterministic(self):
        A = random_sparse(100, seed=3)
        a = partition_graph(A, 6)
        b = partition_graph(A, 6)
        np.testing.assert_array_equal(a, b)


class TestClassifyAndReorder:
    def test_lap6_blocks(self, lap6_system):
        _, ps = lap6_system
        assert ps.num_parts == 2
        assert ps.p == 4 and ps.q == 2
        np.testing.assert_array_equal(ps.interior_sizes, [2, 2])
        np.testing.assert_array_equal(ps.interface_sizes, [1, 1])
        # vertices 2 and 3 straddle the cut on the path 0-1-2-3-4-5
        is_interface = ps.perm.forward >= ps.p
        np.testing.assert_array_equal(np.flatnonzero(is_interface), [2, 3])

    def test_reassembly_exact(self, lap3d_small_system):
        A, ps = lap3d_small_system
        n, p, q = ps.n, ps.p, ps.q
        reassembled = sp.bmat([[ps.B, ps.E], [ps.F, ps.C]], format="csr")
        assert (reassembled != ps.matrix).nnz == 0
        # undo the permutation: must reproduce A bit for bit
        from pslr.sparse import Permutation
        back = permute_symmetric(ps.matrix, Permutation.from_forward(ps.perm.inverse))
        assert (back != A).nnz == 0
        np.testing.assert_array_equal(back.data, A.data)

    def test_B_block_diagonal(self, lap3d_small_system):
        _, ps = lap3d_small_system
        # no coupling between interiors of different subdomains
        B = ps.B.tocoo()
        block_of = np.repeat(np.arange(ps.num_parts), ps.interior_sizes)
        assert np.all(block_of[B.row] == block_of[B.col])

    @pytest.mark.parametrize("one_way", [False, True], ids=["symmetric", "lower-triangle"])
    def test_interface_definition(self, lap3d_small_system, one_way):
        # an interface vertex has a stored coupling, in either direction, with
        # another subdomain; the lower triangle stores each coupling once
        A = lap3d_small_system[0]
        if one_way:
            A = sp.tril(A, format="csr")
        part = partition_graph(A, 4)
        ps = classify_and_reorder(A, part)
        coo = A.tocoo()
        off = coo.row != coo.col
        cross = np.zeros(A.shape[0], dtype=bool)
        mism = part[coo.row[off]] != part[coo.col[off]]
        cross[coo.row[off][mism]] = True
        cross[coo.col[off][mism]] = True
        is_interface = ps.perm.forward >= ps.p
        np.testing.assert_array_equal(is_interface, cross)

    def test_single_part_no_interface(self):
        A = lap1d(10)
        ps = partitioned(A, 1)
        assert ps.q == 0 and ps.p == 10
        assert ps.C.shape == (0, 0)

    def test_all_interface(self):
        # a path cut into single vertices: every vertex couples to another subdomain
        A = lap1d(8)
        ps = partitioned(A, 8)
        assert ps.p == 0 and ps.q == 8
        assert (ps.B.shape, ps.E.shape, ps.F.shape) == ((0, 0), (0, 8), (8, 0))
        P = build(A, PslrConfig(num_subdomains=8, series_degree=2, rank=3))
        b = A @ np.random.default_rng(0).standard_normal(8)
        _, rep = gmres(lambda v: A @ v, P.apply_original, b)
        assert rep.converged

    @pytest.mark.parametrize("assignment", [
        [0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
        [0, 0, -1, 1, 1, 1],
        [0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        [False, False, False, True, True, True],
    ], ids=["short", "long", "negative", "float", "bool"])
    def test_bad_assignment_rejected(self, assignment):
        with pytest.raises(ValueError, match="assignment must give each of the 6 vertices"):
            classify_and_reorder(lap1d(6), np.array(assignment))

    def test_skipped_subdomain_number_has_empty_blocks(self):
        # subdomains are numbered 0 to the largest number given; 1 has no vertex
        part = np.array([0, 0, 0, 2, 2, 2])
        ps = classify_and_reorder(lap1d(6), part)
        assert ps.num_parts == 3
        np.testing.assert_array_equal(ps.interior_sizes, [2, 0, 2])
        np.testing.assert_array_equal(ps.interface_sizes, [1, 0, 1])
        np.testing.assert_array_equal(ps.assignment, part)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64])
    def test_any_integer_dtype(self, lap3d_small_system, dtype):
        A, ps = lap3d_small_system
        other = classify_and_reorder(A, ps.assignment.astype(dtype))
        np.testing.assert_array_equal(other.perm.forward, ps.perm.forward)
        np.testing.assert_array_equal(other.interface_sizes, ps.interface_sizes)

    def test_sizes_consistent(self, lap3d_small_system):
        _, ps = lap3d_small_system
        assert ps.interior_sizes.sum() == ps.p
        assert ps.interface_sizes.sum() == ps.q
        assert ps.B.shape == (ps.p, ps.p)
        assert ps.E.shape == (ps.p, ps.q)
        assert ps.F.shape == (ps.q, ps.p)
        assert ps.C.shape == (ps.q, ps.q)


def test_save_assignment_json(tmp_path):
    import json
    part = partition_graph(lap1d(6), 2)
    path = tmp_path / "parts.json"
    save_assignment_json(part, path)
    data = json.loads(path.read_text())
    np.testing.assert_array_equal(data, part)
