"""Synthetic hyperlink graph over websites.

Links are drawn by preferential attachment toward a per-site *popularity*
weight: the probability that a site receives an in-link is proportional to
its weight. Popularity is supplied by the corpus generator and is drawn
independently of site accuracy — which is precisely what makes KBT and
PageRank near-orthogonal in Figure 10 (gossip sites get large weights, so
they rank high on PageRank while providing mostly false facts).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.util.rng import derive_rng, weighted_choice, zipf_sizes


class WebGraph:
    """A directed graph over website names."""

    def __init__(self, nodes: list[str]) -> None:
        if len(set(nodes)) != len(nodes):
            raise ValueError("duplicate nodes")
        self._nodes = list(nodes)
        self._out: dict[str, list[str]] = {node: [] for node in nodes}
        self._in_degree: dict[str, int] = {node: 0 for node in nodes}

    def add_edge(self, src: str, dst: str) -> None:
        if src not in self._out or dst not in self._out:
            raise KeyError("both endpoints must be graph nodes")
        self._out[src].append(dst)
        self._in_degree[dst] += 1

    @property
    def nodes(self) -> list[str]:
        return list(self._nodes)

    def out_links(self, node: str) -> list[str]:
        return list(self._out[node])

    def in_degree(self, node: str) -> int:
        return self._in_degree[node]

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(targets) for targets in self._out.values())


def generate_web_graph(
    popularity: Mapping[str, float],
    mean_out_links: int = 8,
    max_out_links: int = 60,
    seed: int = 0,
) -> WebGraph:
    """Draw a popularity-weighted preferential-attachment graph.

    Every site emits a Zipf-distributed number of out-links whose targets
    are sampled proportionally to the target's popularity weight
    (self-links are skipped). Sites with zero weight can still link out but
    rarely receive links.
    """
    if mean_out_links < 1:
        raise ValueError("mean_out_links must be >= 1")
    nodes = list(popularity)
    graph = WebGraph(nodes)
    if len(nodes) < 2:
        return graph
    targets = nodes
    weights = [max(popularity[node], 0.0) for node in nodes]
    if sum(weights) <= 0:
        weights = [1.0] * len(nodes)
    rng = derive_rng(seed, "web-graph")
    out_counts = zipf_sizes(
        rng, len(nodes), exponent=1.2, minimum=1, maximum=max_out_links
    )
    # Scale the draw so the average lands near mean_out_links.
    scale = mean_out_links / max(sum(out_counts) / len(out_counts), 1.0)
    for node, raw_count in zip(nodes, out_counts):
        count = max(1, round(raw_count * scale))
        for _ in range(count):
            dst = weighted_choice(rng, targets, weights)
            if dst == node:
                continue
            graph.add_edge(node, dst)
    return graph
