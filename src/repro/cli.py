"""Command-line interface: generate, index, recommend, explain, evaluate.

Installed as ``python -m repro.cli`` (no console-script entry point is
registered so offline legacy installs stay trivial).  Subcommands:

* ``generate``  — create a synthetic sharing community and save it;
* ``index``     — build a CommunityIndex over a saved dataset and save it;
  ``--shards S`` instead partitions the catalogue across S shards
  (``--router hash|zorder``) and writes a sharded deployment directory;
* ``recommend`` — top-K recommendations for a clicked video;
* ``ingest``    — apply live updates (add/retire videos, comment batches)
  to a saved index and save the result; ``--wal`` journals every mutation
  to a write-ahead log first, so a crash mid-session loses nothing.
  Pointed at a sharded deployment directory, mutations route through the
  shard facade and log to the per-shard WALs;
* ``recover``   — rebuild an index from a snapshot plus its WAL and save
  the repaired checkpoint (``recover SNAPSHOT WAL OUTPUT``), or a whole
  sharded deployment (``recover DEPLOYMENT OUTPUT``: every shard replays
  its own WAL, in parallel);
* ``explain``   — the evidence behind one (query, candidate) pair;
* ``evaluate``  — AR/AC/MAP of a chosen method over the Table-2 workload;
* ``stats``     — run sample queries and print the metrics snapshot
  (Prometheus text exposition or JSON) plus index-level gauges; on a
  sharded deployment the snapshot carries the per-shard breakdown
  (``repro_shard_videos{shard=...}`` et al.);
* ``faults``    — list the registered crash points and injectable fault
  classes (the durability + serving injection matrix);
* ``serve-soak`` — run the seeded chaos soak (concurrent writers vs
  readers over the serving gateway) and report its invariants;
  ``--shards S`` soaks the scatter-gather gateway instead (writer skew,
  one-shard fault bursts, per-shard breakers);
* ``serve``     — run the HTTP serving front-end (DESIGN §14) over a saved
  index or sharded deployment: per-request deadlines via ``X-Deadline-Ms``,
  per-client rate limiting, an epoch-keyed response cache, durable
  interaction logging with periodic folds into the index, ``/healthz`` /
  ``/readyz`` / ``/stats``, and graceful drain on SIGTERM (stop accepting,
  finish in-flight within ``--drain-s``, flush the interaction log);
  ``--chaos-*`` flags self-inject network faults for the netchaos soak;
* ``load``      — drive a running server with the bundled retrying client
  (jittered backoff honoring ``Retry-After``, retry budget) and report
  RPS + hit/miss latency percentiles; ``--out`` records one JSON line per
  request for post-hoc (oracle) analysis.

``ingest``, ``recover``, ``stats`` and ``serve`` tell a sharded deployment
from a snapshot file by its manifest
(:func:`~repro.sharding.persist.open_master`) and run one body over
either.  ``stats --url`` scrapes a *running* server's ``/stats`` endpoint
instead of rebuilding an index locally.

``recommend --deadline-ms`` bounds one query's candidate scan; an expired
deadline exits 0 with the best-effort partial ranking and a stderr note.
A request shed by the serving gateway's admission control surfaces as a
typed :class:`~repro.errors.OverloadedError` -> exit code 2.

``recommend --trace`` additionally prints the per-query span tree — the
Fig.-6-style breakdown of where the query spent its time (candidate
generation, κJ scoring, SAR scoring, fusion/top-k).

Every command is deterministic given the dataset/seed, so CLI sessions
are reproducible end to end.  Missing or corrupt snapshot/WAL files —
and unknown video/method ids surfacing as ``KeyError`` — exit with code
2 and a one-line typed error instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["build_parser", "main"]

#: Recommender factories selectable with ``--method``.
METHOD_CHOICES = ("csf-sar-h", "csf-sar", "csf", "cr", "sr", "knn", "affrf")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online Video Recommendation in Sharing Community (SIGMOD 2015) reproduction",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic community")
    generate.add_argument("output", help="output path (.json or .json.gz)")
    generate.add_argument("--hours", type=float, default=10.0, help="dataset size in video-hours")
    generate.add_argument("--seed", type=int, default=2015, help="master seed")

    index = commands.add_parser("index", help="build and save a community index")
    index.add_argument("dataset", help="dataset file from `generate`")
    index.add_argument("output", help="output index path (.json.gz)")
    index.add_argument("--omega", type=float, default=0.7, help="fusion weight")
    index.add_argument("--k", type=int, default=60, help="number of sub-communities")
    index.add_argument("--no-lsb", action="store_true", help="skip the LSB content index")
    index.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the catalogue across this many shards and write a "
        "sharded deployment directory instead of one index file",
    )
    index.add_argument(
        "--router",
        choices=("hash", "zorder"),
        default="hash",
        help="shard placement: video-id hash (default) or Z-order key range",
    )

    recommend = commands.add_parser("recommend", help="recommend for a clicked video")
    recommend.add_argument("index", help="index file from `index`")
    recommend.add_argument("video", help="the clicked video id")
    recommend.add_argument("--top-k", type=int, default=10)
    recommend.add_argument(
        "--method",
        choices=METHOD_CHOICES,
        default="csf-sar-h",
    )
    recommend.add_argument(
        "--trace",
        action="store_true",
        help="print the per-stage span tree of the query (candidate "
        "generation, content scoring, social scoring, fusion/top-k)",
    )
    recommend.add_argument(
        "--deadline-ms",
        type=float,
        help="per-request deadline in milliseconds; an expired deadline "
        "returns the best-effort partial ranking (with a note on stderr) "
        "instead of failing",
    )

    faults = commands.add_parser(
        "faults", help="inspect the fault-injection surface"
    )
    faults.add_argument(
        "--list",
        action="store_true",
        dest="list_points",
        help="print every registered crash point and the injectable "
        "serving fault classes",
    )

    serve_soak = commands.add_parser(
        "serve-soak",
        help="run the seeded chaos soak (concurrent writers vs readers over "
        "the serving gateway) and report its invariants",
    )
    serve_soak.add_argument("--writers", type=int, default=4)
    serve_soak.add_argument("--readers", type=int, default=16)
    serve_soak.add_argument(
        "--queries", type=int, default=2000, help="attempted queries (total)"
    )
    serve_soak.add_argument("--seed", type=int, default=2015)
    serve_soak.add_argument(
        "--shards",
        type=int,
        default=1,
        help="soak a sharded scatter-gather gateway over this many shards "
        "(writer skew, one-shard fault bursts, per-shard breakers)",
    )
    serve_soak.add_argument(
        "--router",
        choices=("hash", "zorder"),
        default="hash",
        help="shard placement for --shards > 1",
    )
    serve_soak.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the post-hoc serial-oracle parity verification",
    )
    serve_soak.add_argument(
        "--output", help="also write the full soak report JSON to this path"
    )

    ingest = commands.add_parser(
        "ingest", help="apply live updates (add/retire/comments) to a saved index"
    )
    ingest.add_argument("index", help="index file or sharded deployment")
    ingest.add_argument(
        "output", help="output path for the updated index or deployment"
    )
    ingest.add_argument(
        "--add",
        default="",
        help="comma-separated video ids to ingest (requires --add-from)",
    )
    ingest.add_argument(
        "--add-from",
        help="dataset file providing the records of the --add videos",
    )
    ingest.add_argument(
        "--retire", default="", help="comma-separated video ids to retire"
    )
    ingest.add_argument(
        "--apply-months",
        help="fold the dataset's comment log for months A-B (e.g. 12-15) "
        "into the social state and advance the watermark",
    )
    ingest.add_argument(
        "--incremental",
        action="store_true",
        help="apply comments via Figure-5 incremental maintenance instead of "
        "exact re-derivation",
    )
    ingest.add_argument(
        "--wal",
        help="append every mutation to this write-ahead log before applying "
        "it (crash mid-ingest -> `recover` rebuilds the exact state); "
        "sharded deployments log to their per-shard WALs instead",
    )

    recover = commands.add_parser(
        "recover",
        help="rebuild an index from a snapshot plus its WAL (SNAPSHOT WAL "
        "OUTPUT), or a sharded deployment from its per-shard WALs "
        "(DEPLOYMENT OUTPUT)",
    )
    recover.add_argument(
        "snapshot", help="last good index snapshot, or a sharded deployment"
    )
    recover.add_argument(
        "wal",
        help="write-ahead log (may be missing or torn); for a deployment, "
        "the output deployment directory",
    )
    recover.add_argument(
        "output",
        nargs="?",
        help="output path for the recovered index (omitted for a deployment)",
    )

    explain = commands.add_parser("explain", help="explain one recommendation")
    explain.add_argument("index", help="index file from `index`")
    explain.add_argument("query", help="the clicked video id")
    explain.add_argument("candidate", help="the recommended video id")

    evaluate = commands.add_parser("evaluate", help="AR/AC/MAP over the Table-2 sources")
    evaluate.add_argument("index", help="index file from `index`")
    evaluate.add_argument(
        "--methods",
        default="csf,sr,cr,affrf",
        help="comma-separated methods to compare",
    )

    serve = commands.add_parser(
        "serve",
        help="run the HTTP serving front-end over a saved index or "
        "sharded deployment (graceful drain on SIGTERM)",
    )
    serve.add_argument("index", help="index file or sharded deployment directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8315, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        help="default per-request deadline applied when the client sends "
        "no X-Deadline-Ms header",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=0.0,
        help="per-client token-bucket rate in requests/second (0 = off)",
    )
    serve.add_argument(
        "--burst", type=int, default=20, help="token-bucket burst capacity"
    )
    serve.add_argument(
        "--drain-s",
        type=float,
        default=5.0,
        help="graceful-drain budget: seconds to finish in-flight requests "
        "after SIGTERM before the listener closes anyway",
    )
    serve.add_argument(
        "--cache",
        type=int,
        default=1024,
        help="epoch-keyed response cache entries (0 = off)",
    )
    serve.add_argument(
        "--apply-every",
        type=int,
        default=0,
        help="fold logged interactions into the index every N records "
        "(publishing a fresh epoch); 0 logs only — a restart still "
        "replays the whole log",
    )
    serve.add_argument(
        "--log",
        help="interaction log path (default: INDEX + '.interactions.wal', "
        "or 'interactions.wal' inside a deployment directory)",
    )
    serve.add_argument("--max-concurrency", type=int, default=8)
    serve.add_argument("--queue-depth", type=int, default=16)
    serve.add_argument(
        "--coalesce",
        action="store_true",
        help="defense: collapse concurrent identical memo misses into one "
        "scan (flash-crowd singleflight)",
    )
    serve.add_argument(
        "--hot-priority",
        action="store_true",
        help="defense: admit memo-resident (hot) queries ahead of queued "
        "cold scans when the admission gate is backlogged",
    )
    serve.add_argument(
        "--min-publish-interval",
        type=float,
        default=0.0,
        help="defense: minimum seconds between epoch publications "
        "(retire-storm backpressure; 0 = publish per mutation)",
    )
    serve.add_argument(
        "--quarantine",
        action="store_true",
        help="defense: divert burst-anomalous commenters into the "
        "WAL-logged spam quarantine instead of the social state",
    )
    serve.add_argument(
        "--chaos-slow-every",
        type=int,
        default=0,
        help="netchaos: sleep --chaos-slow-ms before every Nth request",
    )
    serve.add_argument("--chaos-slow-ms", type=float, default=20.0)
    serve.add_argument(
        "--chaos-abort-every",
        type=int,
        default=0,
        help="netchaos: truncate every Nth response mid-body and close "
        "the connection",
    )

    load = commands.add_parser(
        "load", help="drive a running server with the bundled retrying client"
    )
    load.add_argument("url", help="server base URL (from `serve`)")
    load.add_argument("--queries", type=int, default=1000, help="attempted requests")
    load.add_argument("--concurrency", type=int, default=4)
    load.add_argument("--top-k", type=int, default=10)
    load.add_argument(
        "--deadline-ms", type=float, help="X-Deadline-Ms sent on every query"
    )
    load.add_argument(
        "--interact-every",
        type=int,
        default=0,
        help="every Nth request per worker POSTs a durable interaction "
        "instead of querying",
    )
    load.add_argument("--seed", type=int, default=2015)
    load.add_argument(
        "--skew",
        default="uniform",
        help="query-key distribution: 'uniform' or 'zipf:<s>' — seeded "
        "rank-weighted (1/rank^s) sampling over the catalogue order, the "
        "hot-key skew the defense layer's coalescing is built for",
    )
    load.add_argument("--attempts", type=int, default=4, help="tries per request")
    load.add_argument(
        "--out", help="write one JSON line per request (the netchaos oracle input)"
    )

    stats = commands.add_parser(
        "stats", help="metrics snapshot of an index (runs sample queries)"
    )
    stats.add_argument(
        "index",
        nargs="?",
        help="index file or sharded deployment (omit with --url)",
    )
    stats.add_argument(
        "--url",
        help="scrape a running server's /stats endpoint instead of "
        "rebuilding an index locally",
    )
    stats.add_argument(
        "--queries",
        type=int,
        default=3,
        help="sample queries to run before snapshotting (0 = index gauges only)",
    )
    stats.add_argument("--top-k", type=int, default=10)
    stats.add_argument("--method", choices=METHOD_CHOICES, default="csf-sar-h")
    stats.add_argument(
        "--serving",
        action="store_true",
        help=(
            "route the sample queries through the serving gateway twice "
            "(second pass hits the query memo), so the snapshot includes "
            "the repro_serving_* counters (a sharded deployment always "
            "queries through its gateway)"
        ),
    )
    stats.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="Prometheus text exposition (default) or the JSON snapshot",
    )
    stats.add_argument(
        "--output", help="also write the JSON snapshot to this path"
    )
    return parser


def _make_recommender(index, method: str):
    from repro.core.affrf import AffrfRecommender
    from repro.core.knn import KTopScoreVideoSearch
    from repro.core.recommender import (
        content_recommender,
        csf_recommender,
        csf_sar_h_recommender,
        csf_sar_recommender,
        social_recommender,
    )

    factories = {
        "csf-sar-h": csf_sar_h_recommender,
        "csf-sar": csf_sar_recommender,
        "csf": csf_recommender,
        "cr": content_recommender,
        "sr": social_recommender,
        "knn": KTopScoreVideoSearch,
        "affrf": AffrfRecommender,
    }
    return factories[method](index)


def _cmd_generate(args) -> int:
    from repro.community import CommunityConfig, generate_community
    from repro.io import save_dataset

    dataset = generate_community(CommunityConfig(hours=args.hours, seed=args.seed))
    save_dataset(dataset, args.output)
    print(
        f"wrote {dataset.num_videos} videos / {dataset.num_users} users / "
        f"{len(dataset.comments)} comments to {args.output}"
    )
    return 0


def _cmd_index(args) -> int:
    from repro.core import CommunityIndex, RecommenderConfig
    from repro.io import load_dataset
    from repro.sharding import ShardedIndex, save_master

    dataset = load_dataset(args.dataset)
    config = RecommenderConfig(omega=args.omega, k=args.k)
    if args.shards > 1:
        master = ShardedIndex.build(
            dataset,
            config,
            args.shards,
            router=args.router,
            build_lsb=not args.no_lsb,
        )
        sizes = master.shard_sizes()
        summary = (
            f"{sum(sizes)} videos across {args.shards} {args.router} shards {sizes}"
        )
    else:
        master = CommunityIndex(dataset, config, build_lsb=not args.no_lsb)
        summary = (
            f"{len(master.series)} videos "
            f"({sum(len(s) for s in master.series.values())} signatures, "
            f"{master.social.k} sub-communities)"
        )
    save_master(master, args.output)
    print(f"indexed {summary} -> {args.output}")
    return 0


def _cmd_recommend(args) -> int:
    import inspect

    from repro.io import load_index

    index = load_index(args.index)
    if args.video not in index.series:
        print(f"error: unknown video {args.video!r}", file=sys.stderr)
        return 2
    recommender = _make_recommender(index, args.method)
    supported = inspect.signature(recommender.recommend).parameters
    trace = None
    if args.trace:
        if "trace" in supported:
            from repro.obs import QueryTrace

            trace = QueryTrace("recommend")
        else:
            print(
                f"note: --trace is not supported by method {args.method!r}",
                file=sys.stderr,
            )
    extra = {}
    if trace is not None:
        extra["trace"] = trace
    if args.deadline_ms is not None:
        if "deadline" in supported:
            import time

            extra["deadline"] = time.monotonic() + args.deadline_ms / 1000.0
        else:
            print(
                f"note: --deadline-ms is not supported by method {args.method!r}",
                file=sys.stderr,
            )
    results = recommender.recommend(args.video, args.top_k, **extra)
    record = index.dataset.records[args.video]
    if getattr(results, "degraded", False):
        for reason in results.reasons:
            print(f"note: degraded serving ({reason})", file=sys.stderr)
    if getattr(results, "partial", False):
        print(
            f"note: partial ranking ({results.scored}/{results.total} "
            "candidates scored before the deadline)",
            file=sys.stderr,
        )
    print(f"query {args.video} (topic {index.dataset.topics[record.topic]!r}):")
    for rank, video_id in enumerate(results, start=1):
        title = index.dataset.records[video_id].title
        print(f"{rank:>3}. {video_id}  {title}")
    if trace is not None:
        print()
        print(trace.format_tree())
    return 0


def _cmd_ingest(args) -> int:
    from repro.io import WriteAheadLog, load_dataset
    from repro.sharding import ShardedIndex, attach_wals, open_master, save_master

    add_ids = [vid for vid in args.add.split(",") if vid]
    if add_ids and not args.add_from:
        print("error: --add requires --add-from DATASET", file=sys.stderr)
        return 2
    master = open_master(args.index)
    # The one kind-specific step: a sharded deployment logs to its
    # per-shard WALs, a single index to the optional --wal file.
    sharded = isinstance(master, ShardedIndex)
    if sharded and args.wal:
        print(
            "error: --wal applies to single-index files; a sharded "
            "deployment logs to its per-shard WALs",
            file=sys.stderr,
        )
        return 2
    if sharded:
        wals = attach_wals(master, args.index)
    elif args.wal:
        wals = [WriteAheadLog(args.wal)]
        master.attach_wal(wals[0])
    else:
        wals = []
    added = retired = applied = 0
    try:
        if add_ids:
            source = load_dataset(args.add_from)
            for video_id in add_ids:
                if video_id not in source.records:
                    print(
                        f"error: unknown video {video_id!r} in {args.add_from}",
                        file=sys.stderr,
                    )
                    return 2
                # Carry the video's comment history along so its social
                # descriptor matches what a cold build would derive.
                master.add_comment_history(
                    c for c in source.comments if c.video_id == video_id
                )
                master.ingest_video(source.records[video_id])
                added += 1
        for video_id in (vid for vid in args.retire.split(",") if vid):
            master.retire_video(video_id)
            retired += 1
        if args.apply_months:
            first, _, last = args.apply_months.partition("-")
            first, last = int(first), int(last or first)
            indexed = set(master.video_ids)
            pairs = [
                (c.user_id, c.video_id)
                for c in master.dataset.comments
                if first <= c.month <= last and c.video_id in indexed
            ]
            master.apply_comments(pairs, incremental=args.incremental)
            master.advance_watermark(last)
            applied = len(pairs)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        for wal in wals:
            wal.close()
    save_master(master, args.output)
    if sharded:
        layout = f" across {master.num_shards} shards {master.shard_sizes()}"
        journal = f", wal seqs {[shard.wal_seq for shard in master.shards]}"
    else:
        layout = ""
        journal = f", revisions {master.revisions}"
        journal += f", wal seq {master.wal_seq}" if wals else ""
    print(
        f"ingested {added}, retired {retired}, applied {applied} comments -> "
        f"{args.output} ({len(master.video_ids)} videos{layout}, watermark "
        f"month {master.up_to_month}{journal})"
    )
    return 0


def _cmd_recover(args) -> int:
    from repro.io import replay_wal
    from repro.sharding import ShardedIndex, open_master, save_master

    master = open_master(args.snapshot)
    # A deployment replays its own per-shard WALs while it opens (and
    # takes only an OUTPUT); a snapshot file replays the WAL it is given.
    if isinstance(master, ShardedIndex) != (args.output is None):
        print(
            "error: recover SNAPSHOT WAL OUTPUT (an index file) or "
            "recover DEPLOYMENT OUTPUT (a sharded deployment)",
            file=sys.stderr,
        )
        return 2
    if args.output is None:
        output = args.wal
        logs = [(f"shard {shard.shard_id}", shard) for shard in master.shards]
    else:
        output = args.output
        replay_wal(master, args.wal)
        logs = [(args.wal, master)]
    save_master(master, output)
    for label, part in logs:
        info = part.recovery
        ops = ", ".join(f"{op} x{n}" for op, n in sorted(info.ops.items())) or "none"
        torn = ", torn tail dropped" if info.torn_tail else ""
        print(
            f"{label}: {len(part.video_ids)} videos (replayed {info.replayed} "
            f"WAL records, skipped {info.skipped} already in snapshot{torn}; "
            f"ops: {ops})"
        )
    print(f"recovered {len(master.video_ids)} videos -> {output}")
    return 0


def _cmd_explain(args) -> int:
    from repro.core.explain import explain_recommendation
    from repro.io import load_index

    index = load_index(args.index)
    for video in (args.query, args.candidate):
        if video not in index.series:
            print(f"error: unknown video {video!r}", file=sys.stderr)
            return 2
    explanation = explain_recommendation(index, args.query, args.candidate)
    print(explanation.summary())
    return 0


def _cmd_evaluate(args) -> int:
    from repro.community.workload import select_source_videos
    from repro.evaluation import JudgePanel, evaluate_method, format_table
    from repro.io import load_index

    index = load_index(args.index)
    sources = select_source_videos(index.dataset)
    panel = JudgePanel(index.dataset)
    methods = [method.strip().lower() for method in args.methods.split(",")]
    for method in methods:
        if method not in METHOD_CHOICES:
            print(
                f"error: unknown method {method!r}; "
                f"expected one of {', '.join(METHOD_CHOICES)}",
                file=sys.stderr,
            )
            return 2
    reports = []
    for method in methods:
        recommender = _make_recommender(index, method)
        reports.append(
            evaluate_method(method.upper(), recommender, sources, panel)
        )
    print(format_table(reports))
    return 0


def _cmd_serve(args) -> int:
    import pathlib
    import signal
    import threading

    from repro.net import (
        ChaosSchedule,
        InteractionLog,
        NetConfig,
        RecommendService,
        ReproHTTPServer,
    )
    from repro.serving import GatewayConfig
    from repro.sharding import companion_path, open_master, serving_gateway

    defense = None
    if (
        args.coalesce
        or args.hot_priority
        or args.min_publish_interval > 0
        or args.quarantine
    ):
        from repro.defense import DefenseConfig, init_defense_metrics

        defense = DefenseConfig(
            coalesce=args.coalesce,
            hot_priority=args.hot_priority,
            min_publish_interval=args.min_publish_interval,
            quarantine=args.quarantine,
        )
        init_defense_metrics()
    gateway_config = GatewayConfig(
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        defense=defense,
    )
    master = open_master(args.index)
    gateway = serving_gateway(master, config=gateway_config)
    config = NetConfig(
        default_deadline_ms=args.deadline_ms,
        rate_limit=args.rate_limit,
        rate_burst=args.burst,
        drain_timeout=args.drain_s,
        cache_capacity=args.cache,
        apply_every=args.apply_every,
        defense=defense,
    )
    chaos = None
    if args.chaos_slow_every or args.chaos_abort_every:
        chaos = ChaosSchedule(
            slow_every=args.chaos_slow_every,
            slow_seconds=args.chaos_slow_ms / 1000.0,
            abort_every=args.chaos_abort_every,
        )
    log_path = (
        pathlib.Path(args.log)
        if args.log
        else companion_path(args.index, "interactions.wal")
    )
    service = RecommendService(gateway, InteractionLog(log_path), config)
    server = ReproHTTPServer(service, args.host, args.port, chaos=chaos)
    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    server.start()
    # The netchaos harness parses this line for the bound URL; keep the
    # "on http://" marker stable.
    print(
        f"serving {len(gateway.video_ids)} videos across {gateway.num_shards} "
        f"shard(s) on {server.url} "
        f"(interaction log {log_path}, {service.applied_seq} replayed)",
        flush=True,
    )
    stop.wait()
    leftover = server.drain(args.drain_s)
    gateway.close()
    note = f" ({leftover} still in flight at cutoff)" if leftover else ""
    print(f"drained{note}; interaction log flushed at seq {service.interactions.seq}")
    return 0


def _skew_sampler(skew: str, count: int):
    """``rng -> index`` sampler for ``repro load --skew``.

    ``uniform`` keeps the historical behaviour; ``zipf:<s>`` weights the
    catalogue's rank r at ``1/r^s`` (s=0 is uniform again, s~1 is classic
    web skew, s>=2 concentrates most queries on a handful of hot keys).
    Seeded inverse-CDF sampling, so a rerun replays the same key stream.
    """
    import bisect
    import itertools

    if skew == "uniform":
        return lambda rng: rng.randrange(count)
    if skew.startswith("zipf:"):
        exponent = float(skew.split(":", 1)[1])
        if exponent < 0:
            raise ValueError(f"zipf exponent must be >= 0, got {exponent}")
        weights = [1.0 / (rank**exponent) for rank in range(1, count + 1)]
        total = sum(weights)
        cdf = list(itertools.accumulate(weight / total for weight in weights))
        return lambda rng: min(count - 1, bisect.bisect_left(cdf, rng.random()))
    raise ValueError(f"unknown --skew {skew!r} (expected 'uniform' or 'zipf:<s>')")


def _cmd_load(args) -> int:
    import json
    import random
    import threading
    import time

    from repro.errors import NetClientError
    from repro.net import RetryPolicy, RetryingClient
    from repro.obs import percentiles

    try:
        _skew_sampler(args.skew, 1)  # validate the spelling up front
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    policy = RetryPolicy(attempts=args.attempts)
    # The bootstrap client waits out a server that is still loading its
    # index (connection refused is a retryable GET failure).
    videos = RetryingClient(
        args.url, RetryPolicy(attempts=10, backoff=0.3), seed=args.seed
    ).videos()
    if not videos:
        print("error: server reports an empty catalogue", file=sys.stderr)
        return 2
    sample = _skew_sampler(args.skew, len(videos))
    rows: list[dict] = []
    rows_lock = threading.Lock()
    per_worker = [
        args.queries // args.concurrency
        + (1 if worker < args.queries % args.concurrency else 0)
        for worker in range(args.concurrency)
    ]

    def worker(worker_id: int) -> None:
        rng = random.Random(args.seed * 1009 + worker_id)
        client = RetryingClient(
            args.url,
            policy,
            client_id=f"load-{args.seed}-{worker_id}",
            seed=args.seed + worker_id,
        )
        for i in range(per_worker[worker_id]):
            interact = args.interact_every > 0 and i % args.interact_every == (
                args.interact_every - 1
            )
            video = videos[sample(rng)]
            row: dict = {
                "kind": "interaction" if interact else "recommend",
                "video": video,
                "client": client.client_id,
            }
            started = time.monotonic()
            try:
                if interact:
                    response = client.interaction(
                        f"viewer-{client.client_id}",
                        video,
                        watched_percent=rng.randrange(101),
                        liked=rng.choice((-1, 0, 1)),
                    )
                    row["status"] = response.status
                    row["body"] = response.json()
                else:
                    response = client.recommend(
                        video, args.top_k, deadline_ms=args.deadline_ms
                    )
                    row["status"] = response.status
                    row["cache"] = response.header("X-Cache")
                    row["body"] = response.json()
            except NetClientError as error:
                row["status"] = error.status
                row["error"] = str(error)
            except Exception as error:  # noqa: BLE001 - record, keep loading
                row["status"] = None
                row["error"] = str(error)
            row["ms"] = (time.monotonic() - started) * 1000.0
            with rows_lock:
                rows.append(row)

    started = time.monotonic()
    threads = [
        threading.Thread(target=worker, args=(worker_id,), daemon=True)
        for worker_id in range(args.concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    if args.out:
        with open(args.out, "w") as handle:
            for row in rows:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
    by_status: dict = {}
    for row in rows:
        key = str(row["status"]) if row["status"] is not None else "conn"
        by_status[key] = by_status.get(key, 0) + 1
    ok_recommend = [r for r in rows if r["kind"] == "recommend" and r["status"] == 200]
    hits = [r["ms"] for r in ok_recommend if r.get("cache") == "hit"]
    misses = [r["ms"] for r in ok_recommend if r.get("cache") != "hit"]
    acked = sum(1 for r in rows if r["kind"] == "interaction" and r["status"] == 200)
    statuses = ", ".join(f"{n} x{s}" for s, n in sorted(by_status.items()))
    print(
        f"load done: {len(rows)} attempted in {elapsed:.1f}s "
        f"({len(rows) / elapsed:.0f} rps); {statuses}; "
        f"{acked} interactions acked"
    )
    for label, values in (("hit", hits), ("miss", misses)):
        if values:
            pct = percentiles(values, (50.0, 99.0))
            print(
                f"  recommend {label}: {len(values)} ok, "
                f"p50 {pct['p50']:.2f} ms, p99 {pct['p99']:.2f} ms"
            )
    return 0


def _cmd_stats(args) -> int:
    from repro.obs import MetricsRegistry, use_metrics
    from repro.sharding import ShardedIndex, open_master, serving_gateway

    if args.url:
        from repro.net import RetryingClient

        client = RetryingClient(args.url)
        if args.format == "json":
            _emit_snapshot(args, client.stats_snapshot("json"), "")
        else:
            print(client.stats_snapshot("prom"), end="")
        return 0
    if args.index is None:
        print("error: stats needs an INDEX argument or --url", file=sys.stderr)
        return 2
    master = open_master(args.index)
    sharded = isinstance(master, ShardedIndex)
    registry = MetricsRegistry()
    with use_metrics(registry):
        sample = master.video_ids[: max(args.queries, 0)]
        if sample and (args.serving or sharded):
            # A deployment is only queryable through its scatter-gather
            # gateway, so it takes this path with or without --serving.
            if args.serving:
                from repro.defense import init_defense_metrics

                # Zero-register the repro_defense_* families so dashboards
                # see the full defense surface even before any attack.
                init_defense_metrics()
            gateway = serving_gateway(master)
            try:
                # Two identical passes: the first misses the query memo
                # and scans, the second hits it — both counter families
                # land in the snapshot.
                for _ in range(2):
                    for video_id in sample:
                        gateway.recommend(video_id, args.top_k)
            finally:
                gateway.close()
        elif sample:
            recommender = _make_recommender(master, args.method)
            for video_id in sample:
                recommender.recommend(video_id, args.top_k)
    gauges = {
        "repro_index_videos": len(master.video_ids),
        "repro_index_subcommunities": master.social_store.k,
    }
    if sharded:
        gauges["repro_index_shards"] = master.num_shards
        for shard in master.shards:
            label = str(shard.shard_id)
            for name, value in (
                ("repro_shard_videos", len(shard.content.series)),
                ("repro_shard_wal_seq", shard.wal_seq),
                ("repro_shard_watermark_month", shard.up_to_month),
            ):
                registry.set_gauge(name, value, shard=label)
    else:
        gauges.update(
            repro_index_signatures=sum(len(s) for s in master.series.values()),
            repro_index_content_revision=master.content.revision,
            repro_index_social_revision=master.social_store.revision,
            repro_social_available=int(master.social_store.available),
            repro_social_watermark_month=master.up_to_month,
            repro_wal_seq=master.wal_seq,
        )
    for name, value in gauges.items():
        registry.set_gauge(name, value)
    _emit_snapshot(args, registry.snapshot(), registry.to_prometheus())
    return 0


def _emit_snapshot(args, snapshot: dict, prometheus: str) -> None:
    """Print *snapshot* in ``--format``; ``--output`` gets its JSON."""
    import json

    if args.output:
        with open(args.output, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.format == "json":
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(prometheus, end="")


def _cmd_faults(args) -> int:
    # Import the modules that register crash points at import time — the
    # durability writers and the serving gateway — so the listing is the
    # full injection matrix regardless of what the process touched so far.
    import repro.io.atomic  # noqa: F401
    import repro.io.wal  # noqa: F401
    import repro.serving.gateway  # noqa: F401
    from repro.testing.faults import (
        CRASH_POINTS,
        InjectedCrashError,
        InjectedFaultError,
        registered_crash_points,
    )

    if not args.list_points:
        print("nothing to do; try `faults --list`", file=sys.stderr)
        return 2
    points = registered_crash_points()
    print(f"{len(points)} registered crash points:")
    width = max(len(point) for point in points)
    for point in points:
        description = CRASH_POINTS.get(point, "")
        print(f"  {point:<{width}}  {description}")
    print()
    print("injectable fault classes:")
    for cls, meaning in (
        (InjectedCrashError, "process death at the point (abort_at)"),
        (InjectedFaultError, "transient dependency failure (fail_at; retryable)"),
    ):
        print(f"  {cls.__name__:<{width}}  {meaning}")
    print()
    print("serving fault handling (repro.errors):")
    print(f"  {'OverloadedError':<{width}}  admission shed the request (exit code 2)")
    print(f"  {'CircuitOpenError':<{width}}  social path short-circuited by the breaker")
    print(f"  {'TransientServingError':<{width}}  retryable dependency hiccup")
    return 0


def _cmd_serve_soak(args) -> int:
    import json

    from repro.testing.chaos import SoakConfig, run_soak

    report = run_soak(
        SoakConfig(
            writers=args.writers,
            readers=args.readers,
            queries=args.queries,
            seed=args.seed,
            shards=args.shards,
            router=args.router,
            verify=not args.no_verify,
        )
    )
    summary = report.to_dict()
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(
        f"soak seed {report.config_seed}: {report.queries_total} served, "
        f"{report.queries_shed} shed ({report.shed_rate:.1%}), "
        f"{report.queries_degraded} degraded ({report.degraded_rate:.1%}), "
        f"{report.queries_partial} partial"
    )
    print(
        f"epochs {report.epochs_published} published / {report.epochs_retired} "
        f"retired / {report.epochs_live} live; breaker transitions "
        f"{len(report.breaker_transitions)}"
    )
    if report.shard_sizes:
        per_shard = ", ".join(
            f"shard {i}: {size} videos / {len(transitions)} breaker "
            "transitions"
            for i, (size, transitions) in enumerate(
                zip(report.shard_sizes, report.shard_breaker_transitions)
            )
        )
        print(
            f"{len(report.shard_sizes)} shards ({per_shard}); "
            f"{report.queries_memoized} memoized"
        )
    if report.latencies_ms:
        print(
            f"latency p50 {report.latencies_ms['p50']:.2f} ms, "
            f"p99 {report.latencies_ms['p99']:.2f} ms"
        )
    if report.parity_checked:
        print(
            f"oracle parity: {report.parity_checked - len(report.parity_failures)}"
            f"/{report.parity_checked} bit-identical"
        )
    if not report.ok:
        print(
            f"SOAK FAILED: {len(report.reader_errors)} reader errors, "
            f"{len(report.writer_errors)} writer errors, "
            f"{len(report.parity_failures)} parity failures"
            + (f" (schedule: {report.artifact_path})" if report.artifact_path else ""),
            file=sys.stderr,
        )
        return 1
    print("soak ok")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "index": _cmd_index,
    "recommend": _cmd_recommend,
    "ingest": _cmd_ingest,
    "recover": _cmd_recover,
    "explain": _cmd_explain,
    "evaluate": _cmd_evaluate,
    "stats": _cmd_stats,
    "faults": _cmd_faults,
    "serve-soak": _cmd_serve_soak,
    "serve": _cmd_serve,
    "load": _cmd_load,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Missing files and typed durability failures (corrupt snapshot or WAL,
    incompatible schema, unavailable social store) print one ``error:``
    line on stderr and exit 2 instead of dumping a traceback.  The same
    goes for ``KeyError`` escaping a handler — an unknown query video id
    (or method name) is a user error, not a crash.
    """
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (FileNotFoundError, ReproError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyError as error:
        detail = error.args[0] if error.args else error
        print(f"error: {detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
