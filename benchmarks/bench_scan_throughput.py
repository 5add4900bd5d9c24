"""Fused-scan throughput: seed engines vs the pruned float32 hot path.

Times recommendation queries/second of :class:`FusionRecommender` over
the ``N=200`` reference community (``build_workload(hours=17)`` — 204
videos) for three rows:

* ``scalar`` — the original per-pair Python scan;
* ``reference`` — the float64 unpruned arithmetic: every candidate's
  :meth:`~FusionRecommender.component_scores` fused and ranked by
  :func:`rank_components_scored`.  This is the parity oracle and the
  pre-optimization batch engine's cost, the baseline the ≥10x target
  is measured against;
* ``batch-fast`` — the shipped hot path: float32 packed signature
  banks, segment-CDF pruning bounds, position-addressed kernels.  This
  is what a gateway memo **miss** pays.

On top of the engine matrix the bench reports:

* memo hit vs miss latency through :class:`ServingGateway` (the
  epoch-keyed query memo) plus the ``repro_serving_memo_*`` counters;
* an ``N=2k–20k`` synthetic-community scaling sweep (fast vs reference
  seconds/query, candidates scored, ranking parity against the
  reference);
* an LSB multi-probe sweep (``knn_probes``): candidate-set size,
  recall@10 against the full forest, and KNN search latency per probe
  budget.

Every speedup is computed within a single run — engine pairs are timed
back-to-back on the same machine state, best-of-``reps`` — so the
recorded ratios do not depend on cross-run machine variance.

Besides the human-readable table, a full run writes machine-readable
``BENCH_scan_throughput.json`` at the repo root so future PRs can track
the throughput trajectory.  ``--smoke`` runs a tiny community (CI
sanity); ``--ci`` additionally fails if ``seconds_per_query`` regresses
more than 2x over the checked-in ``benchmarks/perf_floor.json``.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_scan_throughput.py
[--smoke] [--ci]``) or under pytest (``pytest benchmarks/bench_scan_throughput.py``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time

import numpy as np

from repro.community import build_workload
from repro.community.models import CommunityDataset
from repro.core import CommunityIndex, LiveCommunityIndex, RecommenderConfig
from repro.core.knn import KTopScoreVideoSearch
from repro.core.recommender import FusionRecommender, rank_components_scored
from repro.core.stores import ContentStore, SocialStore
from repro.obs import QueryTrace, percentiles
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.serving import GatewayConfig, ServingGateway
from repro.signatures.cuboid import CuboidSignature
from repro.signatures.series import SignatureSeries
from repro.social.descriptor import SocialDescriptor

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
JSON_PATH = REPO_ROOT / "BENCH_scan_throughput.json"
FLOOR_PATH = REPO_ROOT / "benchmarks" / "perf_floor.json"

#: Default generator community: ~12 videos/hour, so 17 crawl-hours land
#: on 204 videos — the "N=200 reference point" of the acceptance target.
DEFAULT_HOURS = 17.0
DEFAULT_SEED = 5
DEFAULT_QUERIES = 30
DEFAULT_REPS = 5
#: Synthetic-community sizes of the scaling sweep.
SWEEP_SIZES = (2000, 5000, 10000, 20000)
#: LSB tree budgets of the multi-probe sweep (None = full forest).
PROBE_BUDGETS = (1, 2, 4, None)

#: Rows of the engine matrix: label -> :class:`FusionRecommender` engine.
#: ``reference`` runs the arithmetic the batch engine ran before the
#: hot-path work (float64 kernels, no pruning, every candidate scored),
#: so the recorded ``speedup_fast_vs_seed_batch`` is a like-for-like
#: before/after on one machine state.
ENGINE_ROWS: dict[str, str] = {
    "scalar": "scalar",
    "reference": "batch",
    "batch-fast": "batch",
}


def _recommender(index: CommunityIndex, engine: str = "batch") -> FusionRecommender:
    return FusionRecommender(
        index, social_mode="sar-h", content_measure="kj", engine=engine
    )


def _reference_ranking(recommender: FusionRecommender, query: str, top_k: int):
    """The float64 unpruned top-*top_k* ids of *query* (the parity oracle)."""
    components = recommender.component_scores(query)
    return rank_components_scored(components, recommender.omega, top_k)[0]


def _time_queries(recommend, queries, reps: int) -> float:
    """Best-of-*reps* mean seconds/query of *recommend* over *queries*.

    Best-of, not mean-of: the interesting quantity is the engine's cost,
    and the minimum over repetitions is the standard way to strip
    scheduler/frequency noise from a throughput measurement.
    """
    best = float("inf")
    for _ in range(max(1, reps)):
        started = time.perf_counter()
        for query in queries:
            recommend(query)
        best = min(best, (time.perf_counter() - started) / len(queries))
    return best


def build_synthetic_index(
    num_videos: int, seed: int = 0, k: int = 12
) -> CommunityIndex:
    """A content+social index of *num_videos* synthetic videos.

    The generator pipeline grows communities at ~12 videos/hour, which is
    far too slow to reach the 2k–20k sweep sizes, so the sweep builds the
    stores directly: signature series (2–8 cuboid signatures of 3–23
    cells) and social descriptors (2–6 fans) drawn from a seeded RNG with
    the same shape statistics as the generated communities.
    """
    rng = np.random.default_rng(seed)
    config = RecommenderConfig(k=k)
    content = ContentStore(config, build_lsb=False, build_global_features=False)
    num_users = max(60, num_videos // 8)
    users = [f"u{j:05d}" for j in range(num_users)]
    descriptors = {}
    for i in range(num_videos):
        vid = f"v{i:06d}"
        sigs = []
        for _ in range(int(rng.integers(2, 9))):
            ncub = int(rng.integers(3, 24))
            sigs.append(
                CuboidSignature(
                    values=rng.normal(0.0, 8.0, ncub),
                    weights=rng.random(ncub) + 0.05,
                )
            )
        content.add_series(vid, SignatureSeries(video_id=vid, signatures=tuple(sigs)))
        fans = rng.choice(num_users, size=int(rng.integers(2, 7)), replace=False)
        descriptors[vid] = SocialDescriptor.from_users(vid, (users[f] for f in fans))
    social = SocialStore(descriptors, k=config.k)
    dataset = CommunityDataset(records={}, users={}, comments=[], topics=())
    return CommunityIndex._from_parts(dataset, config, content, social)


def _warm_index(index: CommunityIndex) -> None:
    """Materialize the epoch-scoped artifacts outside the timed region."""
    index.sar_matrix("sar-h")
    index.signature_bank().fast_pack()


def run_engines(
    index: CommunityIndex, queries: list[str], top_k: int, reps: int
) -> tuple[dict, dict]:
    """Time every :data:`ENGINE_ROWS` row; returns (rows, rankings)."""
    engines: dict[str, dict] = {}
    rankings: dict[str, list[str]] = {}
    for label, engine in ENGINE_ROWS.items():
        # The scalar scan is ~two orders slower; a shorter query list
        # keeps the bench runnable while still averaging enough queries.
        timed = queries[:8] if label == "scalar" else queries
        engine_reps = min(reps, 2) if label == "scalar" else reps
        recommender = _recommender(index, engine)
        if label == "reference":
            rank = lambda q: _reference_ranking(recommender, q, top_k)
        else:
            rank = lambda q: list(recommender.recommend(q, top_k))
        rank(timed[0])  # warm-up
        spq = _time_queries(rank, timed, engine_reps)
        # A second, traced pass: per-stage latency percentiles of the
        # recommend() rows.  Traced separately so the tracing clock reads
        # never pollute the throughput numbers above.
        stage_samples: dict[str, list[float]] = {}
        if label != "reference":
            for query in timed:
                trace = QueryTrace("recommend")
                recommender.recommend(query, top_k, trace=trace)
                for stage, seconds in trace.stage_seconds().items():
                    stage_samples.setdefault(stage, []).append(seconds)
        rankings[label] = [rank(q) for q in queries]
        engines[label] = {
            "seconds_per_query": spq,
            "queries_per_second": 1.0 / spq,
            "queries_timed": len(timed),
            "stage_seconds": {
                stage: percentiles(samples)
                for stage, samples in sorted(stage_samples.items())
            },
        }
    return engines, rankings


def run_memo(
    dataset, queries: list[str], top_k: int, reps: int
) -> dict:
    """Memo hit vs miss latency through the serving gateway.

    The miss path is measured on a gateway with ``memo_capacity=0`` (the
    memo never holds anything, so every query pays the full fused scan
    plus gateway overhead); the hit path primes a default gateway once
    and then re-times the same query list.  Both run under a private
    metrics registry so the ``repro_serving_memo_*`` counters land in the
    payload.
    """
    registry = MetricsRegistry()
    with use_metrics(registry):
        live = LiveCommunityIndex(dataset, RecommenderConfig())
        miss_gw = ServingGateway(
            live,
            social_mode="sar-h",
            content_measure="kj",
            config=GatewayConfig(default_deadline=None, memo_capacity=0),
        )
        miss_gw.recommend(queries[0], top_k)  # warm-up
        miss_spq = _time_queries(
            lambda q: miss_gw.recommend(q, top_k), queries, reps
        )
        hit_gw = ServingGateway(
            live,
            social_mode="sar-h",
            content_measure="kj",
            config=GatewayConfig(default_deadline=None),
        )
        for query in queries:  # prime the memo
            hit_gw.recommend(query, top_k)
        hit_spq = _time_queries(
            lambda q: hit_gw.recommend(q, top_k), queries, reps
        )
        hit_parity = all(
            list(hit_gw.recommend(q, top_k)) == list(miss_gw.recommend(q, top_k))
            for q in queries[:5]
        )
    counters = registry.snapshot()["counters"]
    return {
        "miss_seconds_per_query": miss_spq,
        "hit_seconds_per_query": hit_spq,
        "hit_speedup_vs_miss": miss_spq / hit_spq,
        "hit_parity": hit_parity,
        "counters": {
            name: counters.get(name, 0)
            for name in (
                "repro_serving_memo_hit_total",
                "repro_serving_memo_miss_total",
                "repro_serving_memo_evict_total",
            )
        },
    }


def run_sweep(
    sizes=SWEEP_SIZES, top_k: int = 10, reps: int = 3, seed: int = 42
) -> list[dict]:
    """Fast-vs-reference scaling curve over synthetic communities."""
    rows = []
    for size in sizes:
        index = build_synthetic_index(size, seed=seed)
        _warm_index(index)
        queries = list(index.video_ids[:: max(1, size // 10)][:10])
        ref_queries = queries[:4]  # the reference scan is O(N) per query
        recommender = _recommender(index)
        reference = lambda q: _reference_ranking(recommender, q, top_k)
        reference(ref_queries[0])
        ref_spq = _time_queries(reference, ref_queries, min(reps, 2))
        ref_ranked = [reference(q) for q in queries]
        registry = MetricsRegistry()
        with use_metrics(registry):
            recommender.recommend(queries[0], top_k)
            fast_spq = _time_queries(
                lambda q: recommender.recommend(q, top_k), queries, reps
            )
            fast_ranked = [list(recommender.recommend(q, top_k)) for q in queries]
        counters = registry.snapshot()["counters"]
        # repro_queries_total carries an engine label; sum the series.
        scanned_queries = sum(
            count
            for name, count in counters.items()
            if name.startswith("repro_queries_total")
        )
        rows.append(
            {
                "videos": size,
                "fast_seconds_per_query": fast_spq,
                "ref_seconds_per_query": ref_spq,
                "scored_per_query": (
                    counters.get("repro_candidates_scored_total", 0) / scanned_queries
                    if scanned_queries
                    else None
                ),
                "ranking_parity": fast_ranked == ref_ranked,
            }
        )
    return rows


def run_probe_sweep(
    dataset, queries: list[str], top_k: int = 10
) -> list[dict]:
    """Recall-vs-candidates of the LSB multi-probe knob (``knn_probes``)."""
    index = CommunityIndex(
        dataset, RecommenderConfig(), build_lsb=True, build_global_features=False
    )
    _warm_index(index)
    full = KTopScoreVideoSearch(index)
    oracle = {
        q: [r.video_id for r in full.search(q, top_k=top_k)] for q in queries
    }
    rows = []
    for probes in PROBE_BUDGETS:
        searcher = KTopScoreVideoSearch(index, probes=probes)
        candidates = 0
        recalled = 0
        expected = 0
        started = time.perf_counter()
        for query in queries:
            candidates += len(searcher._content_candidates(query))
            got = {r.video_id for r in searcher.search(query, top_k=top_k)}
            recalled += len(got & set(oracle[query]))
            expected += len(oracle[query])
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "probes": probes if probes is not None else "all",
                "mean_content_candidates": candidates / len(queries),
                "recall_at_k": recalled / expected if expected else 1.0,
                "seconds_per_query": elapsed / len(queries),
            }
        )
    return rows


def run_throughput(
    hours: float = DEFAULT_HOURS,
    seed: int = DEFAULT_SEED,
    queries: int = DEFAULT_QUERIES,
    top_k: int = 10,
    reps: int = DEFAULT_REPS,
    sweep_sizes=SWEEP_SIZES,
    probe_budgets=PROBE_BUDGETS,
    json_path: pathlib.Path | None = JSON_PATH,
) -> dict:
    """The full bench: engine matrix, memo, scaling sweep, probe sweep."""
    workload = build_workload(hours=hours, seed=seed)
    index = CommunityIndex(
        workload.dataset,
        RecommenderConfig(),
        build_lsb=False,
        build_global_features=False,
    )
    _warm_index(index)
    stride = max(1, len(index.video_ids) // max(1, queries))
    query_ids = list(index.video_ids[::stride][: max(1, queries)])

    engines, rankings = run_engines(index, query_ids, top_k, reps)
    parity = all(ranked == rankings["scalar"] for ranked in rankings.values())

    scalar_spq = engines["scalar"]["seconds_per_query"]
    reference_spq = engines["reference"]["seconds_per_query"]
    fast_spq = engines["batch-fast"]["seconds_per_query"]

    payload = {
        "bench": "scan_throughput",
        "unix_time": time.time(),
        "community": {
            "hours": hours,
            "seed": seed,
            "videos": len(index.video_ids),
            "queries_timed": len(query_ids),
            "reps": reps,
            "top_k": top_k,
        },
        "engines": engines,
        # Headline ratios, all within-run.  "batch" in the legacy key
        # means the current batch engine (= the fast path); "seed batch"
        # is the reference row.
        "speedup_fast_vs_seed_batch": reference_spq / fast_spq,
        "speedup_batch_vs_scalar": scalar_spq / fast_spq,
        "ranking_parity": parity,
        "memo": run_memo(workload.dataset, query_ids, top_k, reps),
    }
    if sweep_sizes:
        payload["scaling_sweep"] = run_sweep(sweep_sizes, top_k=top_k)
    if probe_budgets:
        payload["knn_probe_sweep"] = run_probe_sweep(
            workload.dataset, query_ids[: min(len(query_ids), 10)], top_k=top_k
        )
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return payload


def format_table(payload: dict) -> str:
    lines = [
        f"{'engine':>12} {'s/query':>10} {'queries/s':>10}",
        "-" * 34,
    ]
    for label, row in payload["engines"].items():
        lines.append(
            f"{label:>12} {row['seconds_per_query']:>10.4f} "
            f"{row['queries_per_second']:>10.2f}"
        )
    lines.append(
        f"\nfast vs float64 reference: {payload['speedup_fast_vs_seed_batch']:.1f}x; "
        f"fast vs scalar: {payload['speedup_batch_vs_scalar']:.1f}x; "
        f"ranking parity: {payload['ranking_parity']}"
    )
    memo = payload.get("memo")
    if memo:
        lines.append(
            f"memo: miss {memo['miss_seconds_per_query'] * 1e3:.3f} ms, "
            f"hit {memo['hit_seconds_per_query'] * 1e3:.3f} ms "
            f"({memo['hit_speedup_vs_miss']:.0f}x), parity {memo['hit_parity']}"
        )
    stages = payload["engines"].get("batch-fast", {}).get("stage_seconds", {})
    if stages:
        lines.append("\nbatch-fast per-stage latency (ms):")
        lines.append(f"{'stage':>16} {'p50':>8} {'p90':>8} {'p99':>8}")
        for stage, points in stages.items():
            lines.append(
                f"{stage:>16} {points['p50'] * 1e3:>8.3f} "
                f"{points['p90'] * 1e3:>8.3f} {points['p99'] * 1e3:>8.3f}"
            )
    sweep = payload.get("scaling_sweep")
    if sweep:
        lines.append("\nscaling sweep (fast vs float64 ref):")
        lines.append(
            f"{'videos':>8} {'fast ms/q':>10} {'ref ms/q':>10} "
            f"{'scored/q':>9} {'parity':>7}"
        )
        for row in sweep:
            lines.append(
                f"{row['videos']:>8} {row['fast_seconds_per_query'] * 1e3:>10.3f} "
                f"{row['ref_seconds_per_query'] * 1e3:>10.3f} "
                f"{row['scored_per_query']:>9.1f} {str(row['ranking_parity']):>7}"
            )
    probe = payload.get("knn_probe_sweep")
    if probe:
        lines.append("\nLSB multi-probe sweep (knn_probes):")
        lines.append(
            f"{'probes':>7} {'candidates':>11} {'recall@k':>9} {'ms/query':>9}"
        )
        for row in probe:
            lines.append(
                f"{str(row['probes']):>7} {row['mean_content_candidates']:>11.1f} "
                f"{row['recall_at_k']:>9.3f} {row['seconds_per_query'] * 1e3:>9.3f}"
            )
    return "\n".join(lines)


def check_floor(payload: dict, floor_path: pathlib.Path = FLOOR_PATH) -> list[str]:
    """Regression check against the checked-in floor (``--ci``).

    The floor file records known-good smoke-scale ``seconds_per_query``
    values; a metric more than 2x over its floor fails the perf-smoke
    job.  Floors are deliberately loose (set well above a quiet-machine
    run) so shared CI runners don't flap, while a real order-of-magnitude
    regression still trips.
    """
    floors = json.loads(floor_path.read_text())["floors"]
    observed = {
        "batch_fast_seconds_per_query": payload["engines"]["batch-fast"][
            "seconds_per_query"
        ],
        "memo_hit_seconds_per_query": payload["memo"]["hit_seconds_per_query"],
        "memo_miss_seconds_per_query": payload["memo"]["miss_seconds_per_query"],
    }
    violations = []
    for name, floor in floors.items():
        value = observed.get(name)
        if value is not None and value > 2.0 * floor:
            violations.append(
                f"{name}: {value:.6f}s is more than 2x the floor {floor:.6f}s"
            )
    return violations


def test_scan_throughput(report):
    # Reduced scale under pytest: the seed community, no scaling sweep
    # (the full curve is the standalone run's job), generous speedup
    # floors so loaded CI machines don't flap.
    payload = run_throughput(
        hours=10.0, queries=12, reps=3, sweep_sizes=(), json_path=None
    )
    report(format_table(payload), engine="scalar|reference|batch-fast")
    assert payload["ranking_parity"]
    assert payload["memo"]["hit_parity"]
    assert payload["memo"]["counters"]["repro_serving_memo_hit_total"] > 0
    assert payload["speedup_batch_vs_scalar"] >= 3.0
    assert payload["speedup_fast_vs_seed_batch"] >= 2.0
    # The probe knob must actually shrink the candidate set.
    probe_rows = {row["probes"]: row for row in payload["knn_probe_sweep"]}
    assert (
        probe_rows[1]["mean_content_candidates"]
        <= probe_rows["all"]["mean_content_candidates"]
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--hours", type=float, default=DEFAULT_HOURS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--queries", type=int, default=DEFAULT_QUERIES)
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS)
    parser.add_argument(
        "--json", type=pathlib.Path, default=None,
        help="write the payload JSON here (default: repo-root BENCH file "
        "on full runs, nowhere on --smoke)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny community, no sweep — CI sanity run of every engine",
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="fail if seconds_per_query regresses >2x over benchmarks/perf_floor.json",
    )
    args = parser.parse_args()
    if args.smoke:
        payload = run_throughput(
            hours=2.0, queries=4, reps=2, sweep_sizes=(), json_path=args.json
        )
    else:
        payload = run_throughput(
            hours=args.hours,
            seed=args.seed,
            queries=args.queries,
            reps=args.reps,
            json_path=args.json or JSON_PATH,
        )
    print(format_table(payload))
    if not payload["ranking_parity"]:
        raise SystemExit("engine rankings diverged")
    if args.ci:
        violations = check_floor(payload)
        if violations:
            raise SystemExit("perf floor regression:\n  " + "\n  ".join(violations))
        print("perf floor check: ok")


if __name__ == "__main__":
    main()
