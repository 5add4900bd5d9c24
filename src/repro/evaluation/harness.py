"""Experiment harness: run recommenders over sources, score, and tabulate.

The effectiveness protocol of Section 5 of the paper: for each of the 10
source videos, ask the system for its top-5 / top-10 / top-20
recommendations, have the judge panel rate every returned video, and report
AR, AC and MAP over all queries.  This module wraps that loop so every
bench and example runs through identical machinery.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.evaluation.judges import JudgePanel
from repro.evaluation.metrics import (
    average_accuracy,
    average_rating,
    mean_average_precision,
)
from repro.obs import get_metrics

__all__ = ["MetricsRow", "EffectivenessReport", "evaluate_method", "format_table", "Timer"]

#: A recommender under evaluation: ``(query_video_id, top_k) -> ranked ids``.
RecommendFn = Callable[[str, int], Sequence[str]]


@dataclass(frozen=True)
class MetricsRow:
    """AR / AC / MAP at one cut-off for one method."""

    method: str
    top_k: int
    ar: float
    ac: float
    map: float


@dataclass(frozen=True)
class EffectivenessReport:
    """All metric rows of one method plus its total recommendation time."""

    method: str
    rows: tuple[MetricsRow, ...]
    seconds: float

    def row(self, top_k: int) -> MetricsRow:
        """The row at cut-off *top_k*."""
        for row in self.rows:
            if row.top_k == top_k:
                return row
        raise KeyError(f"no row for top_k={top_k}")


def evaluate_method(
    method: str,
    recommend: RecommendFn,
    sources: Sequence[str],
    panel: JudgePanel,
    top_ks: Sequence[int] = (5, 10, 20),
    exclude_query: bool = True,
    registry=None,
) -> EffectivenessReport:
    """Run *recommend* for every source and score the returned lists.

    The source video itself is dropped from its own recommendation list
    (recommending the clip the user is already watching is vacuous); one
    extra result is requested to compensate.

    *recommend* may be the usual ``(query, top_k) -> ids`` callable or an
    object exposing ``.recommend`` (e.g. a
    :class:`~repro.core.recommender.FusionRecommender`).  Every query is
    recorded into *registry* (the process-wide
    :func:`~repro.obs.get_metrics` one by default) as the
    ``repro_harness_query_seconds`` histogram and
    ``repro_harness_queries_total`` counter.
    """
    if not sources:
        raise ValueError("need at least one source video")
    metrics = get_metrics() if registry is None else registry
    recommend_fn = getattr(recommend, "recommend", recommend)
    max_k = max(top_ks)
    ranked_lists: dict[str, list[str]] = {}
    started = time.perf_counter()
    for source in sources:
        with metrics.time("repro_harness_query_seconds"):
            results = list(recommend_fn(source, max_k + (1 if exclude_query else 0)))
        metrics.inc("repro_harness_queries_total")
        if exclude_query:
            results = [video_id for video_id in results if video_id != source]
        ranked_lists[source] = results[:max_k]
    seconds = time.perf_counter() - started

    rows = []
    for top_k in top_ks:
        per_query_ratings = [
            panel.rate_list(source, ranked_lists[source][:top_k]) for source in sources
        ]
        flat = [rating for ratings in per_query_ratings for rating in ratings]
        rows.append(
            MetricsRow(
                method=method,
                top_k=top_k,
                ar=average_rating(flat),
                ac=average_accuracy(flat),
                map=mean_average_precision(per_query_ratings),
            )
        )
    return EffectivenessReport(method=method, rows=tuple(rows), seconds=seconds)


def format_table(reports: Sequence[EffectivenessReport], top_ks: Sequence[int] = (5, 10, 20)) -> str:
    """Render reports as the AR/AC/MAP table the paper's figures chart."""
    header = f"{'method':<14}" + "".join(
        f"  AR@{k:<4} AC@{k:<4} MAP@{k:<3}" for k in top_ks
    )
    lines = [header, "-" * len(header)]
    for report in reports:
        cells = []
        for top_k in top_ks:
            row = report.row(top_k)
            cells.append(f"  {row.ar:6.3f} {row.ac:6.3f} {row.map:7.3f}")
        lines.append(f"{report.method:<14}" + "".join(cells))
    return "\n".join(lines)


class Timer:
    """Tiny context-manager stopwatch used by the efficiency benches."""

    def __enter__(self) -> "Timer":
        self.seconds = 0.0
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._started
