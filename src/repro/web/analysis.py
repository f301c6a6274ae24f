"""KBT vs PageRank: the Section 5.4.1 joint analysis (Figure 10).

Joins the two signals per website, measures their correlation (the paper
finds them "almost orthogonal"), and reproduces the two quadrant studies:

* **low PageRank, high KBT** — trustworthy tail sources: of the manually
  verified high-KBT sample, only 20/85 had PageRank above 0.5;
* **high PageRank, low KBT** — gossip sites: 14 of 15 sat in the top 15%
  by PageRank yet in the bottom 50% by KBT.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class KBTPageRankPoint:
    """One website in the Figure 10 scatter."""

    website: str
    kbt: float
    pagerank: float
    cohort: str = "unknown"


def join_kbt_pagerank(
    kbt: Mapping[str, float],
    pagerank_scores: Mapping[str, float],
    cohorts: Mapping[str, str] | None = None,
) -> list[KBTPageRankPoint]:
    """Inner-join the two signals over websites carrying both."""
    points = []
    for website, trust in kbt.items():
        pr = pagerank_scores.get(website)
        if pr is None:
            continue
        cohort = cohorts.get(website, "unknown") if cohorts else "unknown"
        points.append(KBTPageRankPoint(website, trust, pr, cohort))
    return points


def pearson_correlation(pairs: list[tuple[float, float]]) -> float:
    """Pearson r of (x, y) pairs; 0 for degenerate inputs."""
    n = len(pairs)
    if n < 2:
        return 0.0
    mean_x = sum(x for x, _y in pairs) / n
    mean_y = sum(y for _x, y in pairs) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    var_x = sum((x - mean_x) ** 2 for x, _y in pairs)
    var_y = sum((y - mean_y) ** 2 for _x, y in pairs)
    if var_x <= 0 or var_y <= 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


@dataclass(frozen=True, slots=True)
class QuadrantReport:
    """Summary statistics of the Figure 10 scatter."""

    correlation: float
    num_points: int
    #: high-KBT (>= kbt_high) sites with PageRank above pr_mid.
    high_kbt_count: int
    high_kbt_popular_count: int
    #: sites in the PageRank top 15% whose KBT is in the bottom 50%.
    top_pr_count: int
    top_pr_low_kbt_count: int

    @property
    def high_kbt_popular_fraction(self) -> float:
        if self.high_kbt_count == 0:
            return 0.0
        return self.high_kbt_popular_count / self.high_kbt_count

    @property
    def top_pr_low_kbt_fraction(self) -> float:
        if self.top_pr_count == 0:
            return 0.0
        return self.top_pr_low_kbt_count / self.top_pr_count


def quadrant_analysis(
    points: list[KBTPageRankPoint],
    kbt_high: float = 0.9,
    pr_mid: float = 0.5,
    pr_top_fraction: float = 0.15,
) -> QuadrantReport:
    """Reproduce the paper's two quadrant studies over the joined points."""
    correlation = pearson_correlation(
        [(p.kbt, p.pagerank) for p in points]
    )
    pr_values = sorted((p.pagerank for p in points), reverse=True)
    kbt_values = sorted(p.kbt for p in points)
    if pr_values:
        top_index = max(int(len(pr_values) * pr_top_fraction) - 1, 0)
        pr_top_threshold = pr_values[top_index]
        kbt_median = kbt_values[len(kbt_values) // 2]
    else:
        pr_top_threshold = 1.0
        kbt_median = 0.0

    high_kbt = [p for p in points if p.kbt >= kbt_high]
    high_kbt_popular = [p for p in high_kbt if p.pagerank > pr_mid]
    top_pr = [p for p in points if p.pagerank >= pr_top_threshold]
    top_pr_low_kbt = [p for p in top_pr if p.kbt < kbt_median]

    return QuadrantReport(
        correlation=correlation,
        num_points=len(points),
        high_kbt_count=len(high_kbt),
        high_kbt_popular_count=len(high_kbt_popular),
        top_pr_count=len(top_pr),
        top_pr_low_kbt_count=len(top_pr_low_kbt),
    )
