"""Instrumentation overhead: metrics enabled vs disabled on the N=200 scan.

The observability layer (``repro.obs``) claims to be cheap enough to leave
on in production serving.  This bench holds it to that: the same query
loop runs over the 200-video generator community once with a recording
:class:`~repro.obs.MetricsRegistry` installed and once with a disabled
one, taking the minimum over interleaved repeats of each, and asserts the
enabled path is within ``OVERHEAD_BUDGET`` (5%) of the disabled path.

Besides the human-readable summary, the run writes
``BENCH_obs_overhead.json`` (the timing comparison) and
``BENCH_metrics_snapshot.json`` (the full metrics snapshot of the enabled
pass — the artifact CI uploads) at the repo root.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_obs_overhead.py
[--smoke]``) or under pytest (``pytest benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

from repro.community import build_workload
from repro.core import CommunityIndex, RecommenderConfig
from repro.core.recommender import FusionRecommender
from repro.obs import MetricsRegistry, use_metrics

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_obs_overhead.json"
SNAPSHOT_PATH = REPO_ROOT / "BENCH_metrics_snapshot.json"

#: ~200 videos from the generator (12 videos/hour).
DEFAULT_HOURS = 16.7
DEFAULT_SEED = 5
OVERHEAD_BUDGET = 0.05


def run_overhead(
    hours: float = DEFAULT_HOURS,
    seed: int = DEFAULT_SEED,
    queries: int = 50,
    top_k: int = 10,
    repeats: int = 5,
    json_path: pathlib.Path | None = JSON_PATH,
    snapshot_path: pathlib.Path | None = SNAPSHOT_PATH,
) -> dict:
    """Time the query loop with metrics on vs off and return the payload."""
    workload = build_workload(hours=hours, seed=seed)
    index = CommunityIndex(
        workload.dataset,
        RecommenderConfig(),
        build_lsb=False,
        build_global_features=False,
    )
    sources = index.video_ids[: max(1, queries)]
    recording = MetricsRegistry()
    registries = {"enabled": recording, "disabled": MetricsRegistry(enabled=False)}

    def one_pass(registry: MetricsRegistry) -> float:
        recommender = FusionRecommender(index, social_mode="sar-h", content_measure="kj")
        with use_metrics(registry):
            recommender.recommend(sources[0], top_k)  # warm-up
            started = time.perf_counter()
            for source in sources:
                recommender.recommend(source, top_k)
            return time.perf_counter() - started

    # Interleave the repeats so drift (thermal, other load) hits both
    # modes equally; keep the minimum, the least-disturbed measurement.
    best = {label: float("inf") for label in registries}
    for _ in range(repeats):
        for label, registry in registries.items():
            best[label] = min(best[label], one_pass(registry))

    overhead = best["enabled"] / best["disabled"] - 1.0
    payload = {
        "bench": "obs_overhead",
        "unix_time": time.time(),
        "community": {
            "hours": hours,
            "seed": seed,
            "videos": len(index.video_ids),
            "queries_timed": len(sources),
            "top_k": top_k,
            "repeats": repeats,
        },
        "seconds_enabled": best["enabled"],
        "seconds_disabled": best["disabled"],
        "overhead_fraction": overhead,
        "overhead_budget": OVERHEAD_BUDGET,
        "within_budget": overhead < OVERHEAD_BUDGET,
    }
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if snapshot_path is not None:
        with open(snapshot_path, "w") as handle:
            json.dump(recording.snapshot(), handle, indent=2)
            handle.write("\n")
    return payload


def format_summary(payload: dict) -> str:
    community = payload["community"]
    return (
        f"videos={community['videos']} queries={community['queries_timed']} "
        f"repeats={community['repeats']}\n"
        f"metrics enabled : {payload['seconds_enabled']:.4f}s\n"
        f"metrics disabled: {payload['seconds_disabled']:.4f}s\n"
        f"overhead: {payload['overhead_fraction'] * 100:+.2f}% "
        f"(budget {payload['overhead_budget'] * 100:.0f}%) "
        f"within_budget={payload['within_budget']}"
    )


def test_obs_overhead(report):
    payload = run_overhead()
    report(format_summary(payload), engine="batch")
    assert payload["within_budget"], (
        f"instrumentation overhead {payload['overhead_fraction'] * 100:.2f}% "
        f"exceeds the {OVERHEAD_BUDGET * 100:.0f}% budget"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=float, default=DEFAULT_HOURS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--queries", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer queries/repeats, still N=200 — the CI overhead check",
    )
    args = parser.parse_args()
    if args.smoke:
        payload = run_overhead(queries=15, repeats=3)
    else:
        payload = run_overhead(
            hours=args.hours,
            seed=args.seed,
            queries=args.queries,
            repeats=args.repeats,
        )
    print(format_summary(payload))
    if not payload["within_budget"]:
        raise SystemExit("instrumentation overhead exceeded budget")


if __name__ == "__main__":
    main()
