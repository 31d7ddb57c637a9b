"""White-box tests of algorithm internals.

The end-to-end tests pin the estimators' outputs; these pin the
intermediate machinery: the diamond algorithm's size classes, the
three-pass algorithm's cycle completion search and H_e sub-sampling,
and the random-order algorithm's common-neighbor primitive.
"""

import math

import pytest

from repro.core.fourcycle_adjacency_diamond import _ClassInstance, _choose2
from repro.core.fourcycle_arbitrary_threepass import (
    FourCycleArbitraryThreePass,
    select_samples,
    subsample_q,
)
from repro.core.triangle_random_order import _adj_add, _common_neighbors


class TestCommonNeighbors:
    def test_basic(self):
        adj = {}
        _adj_add(adj, 0, 1)
        _adj_add(adj, 0, 2)
        _adj_add(adj, 1, 2)
        assert set(_common_neighbors(adj, 0, 1)) == {2}

    def test_missing_vertex(self):
        adj = {}
        _adj_add(adj, 0, 1)
        assert _common_neighbors(adj, 0, 99) == []
        assert _common_neighbors(adj, 98, 99) == []

    def test_symmetric(self):
        adj = {}
        for edge in [(0, 2), (1, 2), (0, 3), (1, 3)]:
            _adj_add(adj, *edge)
        assert set(_common_neighbors(adj, 0, 1)) == {2, 3}
        assert set(_common_neighbors(adj, 1, 0)) == {2, 3}


class TestChoose2:
    def test_integers(self):
        assert _choose2(4) == 6.0
        assert _choose2(2) == 1.0
        assert _choose2(1) == 0.0

    def test_fractional(self):
        assert _choose2(2.5) == pytest.approx(2.5 * 1.5 / 2)


class TestClassInstance:
    def _instance(self, boundary=4.0, pv=1.0, pe=1.0, epsilon=0.3):
        return _ClassInstance(
            boundary=boundary, pv=pv, pe=pe, epsilon=epsilon, t_guess=100.0, seed=3
        )

    def test_accept_window(self):
        inst = self._instance(boundary=4.0, epsilon=0.3)
        assert inst.accept_low == pytest.approx(4.0 * 1.05)
        assert inst.accept_high == pytest.approx(8.0 * 0.95)

    def test_norm_floor(self):
        tiny = self._instance(boundary=1.0)
        assert tiny.norm == 0.5  # C(1,2) = 0 floored
        big = self._instance(boundary=10.0)
        assert big.norm == _choose2(10.0)

    def test_pass1_collects_sampled_edges(self):
        inst = self._instance(pv=1.0, pe=1.0)
        inst.observe_pass1("u", ["a", "b", "c"])
        assert "u" in inst.sampled[0] and "u" in inst.sampled[1]
        # pe=1: every incident edge indexed, in both copies
        assert inst.sampled_edge_count == 6
        assert set(inst.edge_index[0]) == {"a", "b", "c"}

    def test_pass2_requires_start(self):
        inst = self._instance()
        with pytest.raises(RuntimeError):
            inst.observe_pass2("v", ["a"])

    def test_exact_diamond_detected(self):
        """A size-5 diamond through an exact (pv=pe=1) class of
        boundary 4: d_hat=5 is accepted, middle pairs (d=2) rejected,
        and the estimate is exactly C(5,2) cycles."""
        inst = self._instance(boundary=4.0, epsilon=0.3)
        middles = [f"w{i}" for i in range(5)]
        blocks = [("v", middles), ("u", middles)] + [
            (w, ["u", "v"]) for w in middles
        ]
        # pass 1: every vertex's block (pv = 1 samples them all)
        for vertex, neighbors in blocks:
            inst.observe_pass1(vertex, neighbors)
        inst.start_pass2()
        for vertex, neighbors in blocks:
            inst.observe_pass2(vertex, neighbors)
        estimate = inst.estimate_cycles()
        assert estimate == pytest.approx(_choose2(5.0))


class TestCompletions:
    def test_finds_cycle(self):
        adj = {}
        from repro.core.triangle_random_order import _adj_add as add

        for edge in [(1, 2), (2, 3), (3, 0)]:
            add(adj, *edge)
        cycles = FourCycleArbitraryThreePass._completions(adj, 0, 1)
        assert cycles == [(0, 1, 2, 3)]

    def test_rejects_degenerate(self):
        adj = {}
        from repro.core.triangle_random_order import _adj_add as add

        # triangle, not a 4-cycle
        for edge in [(1, 2), (2, 0)]:
            add(adj, *edge)
        assert FourCycleArbitraryThreePass._completions(adj, 0, 1) == []

    def test_multiple_cycles(self):
        adj = {}
        from repro.core.triangle_random_order import _adj_add as add

        # two cycles through edge (0,1): 0-1-2-3 and 0-1-4-5
        for edge in [(1, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 0)]:
            add(adj, *edge)
        cycles = FourCycleArbitraryThreePass._completions(adj, 0, 1)
        assert sorted(cycles) == [(0, 1, 2, 3), (0, 1, 4, 5)]


class TestEdgeOracleSampling:
    def test_paper_mode_marginal_rate(self):
        """H_e vertex inclusion probability is p * (0.4 + q)."""
        p = 0.3
        q = subsample_q(p)
        expected = p * (0.4 + q)
        # select over many seeds on a fixed star around edge (a, b)
        a, b = "a", "b"
        included = 0
        total = 0
        for seed in range(300):
            import random

            rng = random.Random(seed)
            q_set = {f"d{i}" for i in range(20) if rng.random() < p}
            s_adj = {}
            for d in q_set:
                s_adj.setdefault(d, set()).add(a)
                s_adj.setdefault(a, set()).add(d)
            selection = select_samples(
                [(a, b)], (q_set, set()), (s_adj, {}), p, seeds=[seed]
            )
            # each of the 20 candidate H_e vertices (d, a) could be in R1
            included += len(selection.samples[0][0])
            total += 20
        rate = included / total
        assert abs(rate - expected) < 0.03

    def test_direct_mode_for_large_p(self):
        selection = select_samples(
            [("a", "b")],
            ({"d"}, set()),
            ({"d": {"a"}, "a": {"d"}}, {}),
            p=1.0,
            seeds=[1],
        )
        assert selection.mode == "direct"
        assert selection.effective_p == pytest.approx(0.4)
