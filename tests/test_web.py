"""Unit tests for the web graph, PageRank, and the Figure 10 analysis."""

import pytest

from repro.web.analysis import (
    join_kbt_pagerank,
    pearson_correlation,
    quadrant_analysis,
)
from repro.web.graph import WebGraph, generate_web_graph
from repro.web.pagerank import pagerank


class TestWebGraph:
    def test_add_edges_and_degrees(self):
        graph = WebGraph(["a", "b", "c"])
        graph.add_edge("a", "b")
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        assert len(graph.out_links("a")) == 2
        assert graph.in_degree("b") == 2
        assert graph.num_edges == 3

    def test_unknown_endpoint_rejected(self):
        graph = WebGraph(["a"])
        with pytest.raises(KeyError):
            graph.add_edge("a", "zzz")

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ValueError):
            WebGraph(["a", "a"])

    def test_generate_popularity_attracts_links(self):
        popularity = {f"n{i}": 0.1 for i in range(50)}
        popularity["hub"] = 100.0
        graph = generate_web_graph(popularity, seed=0)
        mean_in = sum(
            graph.in_degree(n) for n in graph.nodes if n != "hub"
        ) / 50
        assert graph.in_degree("hub") > 5 * max(mean_in, 1.0)

    def test_generate_no_self_links(self):
        graph = generate_web_graph({f"n{i}": 1.0 for i in range(20)}, seed=0)
        for node in graph.nodes:
            assert node not in graph.out_links(node)

    def test_tiny_graphs(self):
        assert generate_web_graph({}).num_nodes == 0
        assert generate_web_graph({"a": 1.0}).num_edges == 0


class TestPageRank:
    def test_uniform_cycle_is_uniform(self):
        graph = WebGraph(["a", "b", "c"])
        graph.add_edge("a", "b")
        graph.add_edge("b", "c")
        graph.add_edge("c", "a")
        ranks = pagerank(graph, normalize=False)
        for score in ranks.values():
            assert score == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_unnormalised_sums_to_one(self):
        graph = generate_web_graph({f"n{i}": i + 1.0 for i in range(30)},
                                   seed=1)
        ranks = pagerank(graph, normalize=False)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)

    def test_normalised_max_is_one(self):
        graph = generate_web_graph({f"n{i}": i + 1.0 for i in range(30)},
                                   seed=1)
        ranks = pagerank(graph)
        assert max(ranks.values()) == pytest.approx(1.0)
        assert min(ranks.values()) >= 0.0

    def test_dangling_nodes_handled(self):
        graph = WebGraph(["a", "b"])
        graph.add_edge("a", "b")  # b dangles
        ranks = pagerank(graph, normalize=False)
        assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)
        assert ranks["b"] > ranks["a"]

    def test_authority_outranks_hubs(self):
        graph = WebGraph(["hub1", "hub2", "hub3", "authority", "other"])
        for hub in ("hub1", "hub2", "hub3"):
            graph.add_edge(hub, "authority")
        graph.add_edge("authority", "other")
        graph.add_edge("other", "hub1")
        ranks = pagerank(graph)
        for hub in ("hub1", "hub2", "hub3"):
            assert ranks["authority"] > ranks[hub]

    def test_empty_graph(self):
        assert pagerank(WebGraph([])) == {}

    def test_damping_validated(self):
        with pytest.raises(ValueError):
            pagerank(WebGraph(["a"]), damping=1.0)

    def test_star_known_values(self):
        """Closed form for a 2-node graph a->b (b dangling), d=0.85:
        solving the stationary equations gives pi_a ~ 0.3508."""
        graph = WebGraph(["a", "b"])
        graph.add_edge("a", "b")
        ranks = pagerank(graph, normalize=False)
        assert ranks["a"] == pytest.approx(0.3508, abs=1e-3)
        assert ranks["b"] == pytest.approx(0.6492, abs=1e-3)


class TestAnalysis:
    def test_join_inner(self):
        points = join_kbt_pagerank(
            {"a": 0.9, "b": 0.2, "c": 0.5},
            {"a": 0.1, "b": 0.8},
            cohorts={"a": "tail-quality"},
        )
        assert {p.website for p in points} == {"a", "b"}
        assert points[0].cohort in ("tail-quality", "unknown")

    def test_pearson_perfect_correlation(self):
        pairs = [(x, 2.0 * x + 1.0) for x in range(10)]
        assert pearson_correlation(pairs) == pytest.approx(1.0)

    def test_pearson_anticorrelation(self):
        pairs = [(x, -x) for x in range(10)]
        assert pearson_correlation(pairs) == pytest.approx(-1.0)

    def test_pearson_degenerate_inputs(self):
        assert pearson_correlation([]) == 0.0
        assert pearson_correlation([(1.0, 2.0)]) == 0.0
        assert pearson_correlation([(1.0, 5.0), (1.0, 7.0)]) == 0.0

    def test_quadrant_analysis_finds_gossip_pattern(self):
        # 10 accurate unpopular sites, 3 gossip sites, some mainstream.
        points = join_kbt_pagerank(
            kbt={
                **{f"tail{i}": 0.95 for i in range(10)},
                **{f"gossip{i}": 0.1 for i in range(3)},
                **{f"mid{i}": 0.6 for i in range(7)},
            },
            pagerank_scores={
                **{f"tail{i}": 0.05 for i in range(10)},
                **{f"gossip{i}": 0.95 for i in range(3)},
                **{f"mid{i}": 0.4 for i in range(7)},
            },
        )
        report = quadrant_analysis(points)
        assert report.high_kbt_count == 10
        # None of the high-KBT sites are popular.
        assert report.high_kbt_popular_fraction == 0.0
        # The PageRank top sites are all low-KBT gossip.
        assert report.top_pr_low_kbt_fraction == 1.0
        assert report.correlation < 0.0
