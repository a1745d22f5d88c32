"""Unit tests for the UNION-FIND forest."""

from repro.closure.unionfind import UnionFind


def n_sets(uf, items):
    """Distinct representatives among ``items``."""
    return len({uf.find(item) for item in items})


class TestUnionFind:
    def test_lazy_add_on_find(self):
        uf = UnionFind()
        assert uf.find("x") == "x"

    def test_union_merges(self):
        uf = UnionFind()
        uf.union(1, 2)
        assert uf.find(1) == uf.find(2)
        assert n_sets(uf, [1, 2]) == 1

    def test_union_transitive(self):
        uf = UnionFind()
        uf.union(1, 2)
        uf.union(2, 3)
        uf.union(4, 5)
        assert uf.find(1) == uf.find(3)
        assert uf.find(1) != uf.find(4)
        assert n_sets(uf, range(1, 6)) == 2

    def test_union_idempotent(self):
        uf = UnionFind()
        uf.union(1, 2)
        root = uf.union(1, 2)
        assert root == uf.find(1)
        assert n_sets(uf, [1, 2]) == 1

    def test_add_existing_is_noop(self):
        uf = UnionFind()
        uf.add(1)
        uf.union(1, 2)
        uf.add(1)
        assert uf.find(1) == uf.find(2)

    def test_path_compression_flattens(self):
        uf = UnionFind()
        for i in range(100):
            uf.union(i, i + 1)
        root = uf.find(0)
        # After compression every node points (nearly) directly at root.
        assert uf._parent[0] == root

    def test_chain_of_many(self):
        uf = UnionFind()
        for i in range(0, 1000, 2):
            uf.union(i, i + 1)
        assert n_sets(uf, range(1000)) == 500
