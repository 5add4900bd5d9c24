"""Seeded chaos soak: concurrent writers vs readers over the gateway.

The harness stands up a :class:`~repro.serving.gateway.ServingGateway`
over a small generated community and hammers it from three sides at once:

* **writers** ingest, retire and comment (each from a private spare-video
  pool, so mutations never conflict), publishing a fresh epoch per
  mutation;
* **readers** issue top-K queries against base videos that exist in every
  epoch — a deterministic fraction with a deliberately tight deadline to
  exercise partial results;
* a **fault schedule** periodically arms bursts of transient failures at
  the gateway's ``serve.social_scores`` point, driving the retry path and
  tripping the circuit breaker into its open → half-open → closed cycle.

Every query result carries the epoch it was served from (the reference
keeps the frozen snapshot alive past retirement), so after the threads
drain the harness replays each query against a **serial oracle** — a
fresh single-threaded recommender over the pinned epoch — and demands a
bit-identical ranking.  Partial results are checked against the oracle of
their scored candidate *prefix* (the chunked scan is prefix-deterministic:
``scored`` is always chunk-aligned).  Any reader exception, writer
exception or parity mismatch fails the soak; a failing run dumps its full
seeded schedule as JSON into ``$CHAOS_ARTIFACT_DIR`` so CI can attach it
and anyone can replay the exact interleaving pressure.

Everything is derived from one seed: thread schedules still interleave
nondeterministically (that is the point of a soak), but the *workload* —
who ingests what, which queries carry tight deadlines, when fault bursts
arm — replays exactly.

Beyond the baseline chaos, ``scenario`` selects one of three seeded
**adversarial** workloads (DESIGN §16), each paired with the defense
mechanism built to absorb it.  The attack occupies the middle
``attack_start``..``attack_end`` fraction of the reader progress, so the
report can measure a pre-attack latency baseline, the p99 *during* the
attack, and — from the timestamped per-query latency series — the
**time-to-recover**: how long after the attack stops until a window of
queries runs at p99 within ``recovery_factor`` of the baseline again.

* ``flash_crowd`` — extra attack readers hammer one hot key with
  identical queries; singleflight coalescing (``defense.coalesce``)
  should collapse the crowd's concurrent memo misses into single scans.
* ``spam_burst`` — burst commenters flood ``apply_comments`` through a
  :class:`~repro.defense.quarantine.SpamGuard`; regular writers stand
  down so the *rank correlation* between the final and the pre-attack
  rankings isolates exactly the spam's surviving influence (1.0 = the
  quarantine withheld/revoked everything).
* ``retire_storm`` — a mutation storm of rapid ingest/retire churn; the
  publish governor (``defense.min_publish_interval``) should amortize
  the epoch/memo/response-cache thrash into bounded publications.

With ``shards > 1`` the same harness runs against a
:class:`~repro.sharding.ShardedGateway` over a
:class:`~repro.sharding.ShardedIndex`: writer pools are grouped by owner
shard (so each writer's mutation stream *skews* toward one shard rather
than spreading evenly), the fault schedule rotates its bursts one shard
at a time (each burst degrades exactly one shard's social path), and
verification checks every per-shard slice against that shard's serial
oracle — with the owner shard's guest-query payload — re-runs the
deterministic ``(-score, id)`` merge over the recorded slices, and (for
deadline-free queries, whose slices may be trimmed by the chained
pruning threshold) demands the served merged ranking bit-match the
merge of every present shard's full local oracle top-K.  Memoized results
(``shard_results is None``) are counted, not replayed: the memo only
stores clean results keyed by the exact epoch vector, so the record that
populated the entry was itself verified.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.community.workload import build_workload
from repro.core.config import RecommenderConfig
from repro.core.pipeline import LiveCommunityIndex
from repro.defense import DefenseConfig, SpamGuard
from repro.core.fusion import fuse_fj
from repro.core.recommender import (
    FusionRecommender,
    rank_components,
    rank_components_scored,
)
from repro.errors import OverloadedError
from repro.obs import MetricsRegistry, use_metrics
from repro.serving import GatewayConfig, ServingGateway
from repro.serving.gateway import SERVE_SOCIAL_POINT
from repro.sharding import ShardedIndex, make_router, serving_gateway
from repro.testing.faults import FaultPlan

__all__ = ["SoakConfig", "SoakReport", "run_soak"]


@dataclass(frozen=True)
class SoakConfig:
    """Knobs of one chaos soak run (everything keys off ``seed``).

    The defaults satisfy the acceptance floor of the serving work: 4
    writers x 16 readers x 10k queries.  Tests and the bench scale
    ``queries`` (and the community ``hours``) up or down; everything else
    usually stays put.
    """

    writers: int = 4
    readers: int = 16
    #: Attempted queries; with admission deliberately overloaded a soak
    #: sheds 10-20%, so the default leaves ~10k actually *served*.
    queries: int = 12_000
    top_k: int = 10
    seed: int = 2015
    hours: float = 5.0
    base_videos: int = 36
    writer_ops: int = 25
    writer_pause: float = 0.001
    #: Per-query reader pause (0 = flat out).  Adversarial scenarios set
    #: it so the soak spans real wall-time: the attack window and the
    #: recovery tail are measured in seconds, not query counts.
    reader_pause: float = 0.0
    #: Every Nth query of each reader carries ``tight_deadline`` seconds.
    tight_deadline_every: int = 17
    tight_deadline: float = 1e-4
    #: Seconds between armings of ``fault_burst`` transient social faults
    #: (0 disables the fault schedule entirely).
    fault_burst_every: float = 0.2
    fault_burst: int = 8
    #: ``shards > 1`` soaks a :class:`~repro.sharding.ShardedGateway`
    #: instead of the single-index gateway (same writer/reader/fault
    #: pressure; fault bursts rotate one shard at a time).
    shards: int = 1
    router: str = "hash"
    #: Social mode both the gateway under soak and the serial oracles
    #: serve with — "sketch" runs the whole soak on the odd-sketch bank.
    social_mode: str = "sar-h"
    #: Adversarial scenario: ``none`` (baseline chaos), ``flash_crowd``,
    #: ``spam_burst`` or ``retire_storm`` (module docstring).
    scenario: str = "none"
    #: Defense knobs under test (``None`` = undefended; the scenario then
    #: measures the *unmitigated* damage).  Threads into the gateway
    #: config and, for ``spam_burst``, builds the :class:`SpamGuard`.
    defense: DefenseConfig | None = None
    #: The attack window, as fractions of total reader progress: the
    #: attack starts once that share of queries resolved and stands down
    #: at the second mark, leaving the tail to measure recovery.
    attack_start: float = 0.3
    attack_end: float = 0.7
    #: Concurrent attack threads (flash-crowd readers / spam users).
    attack_threads: int = 6
    #: Per-thread attack operation budget (a hard cap under the window).
    attack_ops: int = 500
    attack_pause: float = 0.0005
    #: Recovered = a post-attack window whose p99 is within this factor
    #: of the pre-attack baseline p99.
    recovery_factor: float = 2.0
    #: Width (seconds) of the post-attack windows recovery scans over.
    recovery_window: float = 0.25
    gateway: GatewayConfig = field(
        default_factory=lambda: GatewayConfig(
            max_concurrency=8,
            queue_depth=16,
            queue_timeout=0.05,
            breaker_failure_threshold=3,
            breaker_cooldown=0.05,
            retry_attempts=1,
            retry_backoff=0.0005,
        )
    )
    verify: bool = True

    def __post_init__(self) -> None:
        if self.writers < 1 or self.readers < 1:
            raise ValueError("need at least one writer and one reader")
        if self.queries < self.readers:
            raise ValueError("need at least one query per reader")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.scenario not in ("none", "flash_crowd", "spam_burst", "retire_storm"):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not 0.0 <= self.attack_start < self.attack_end <= 1.0:
            raise ValueError(
                f"attack window must satisfy 0 <= start < end <= 1, got "
                f"[{self.attack_start}, {self.attack_end}]"
            )
        if self.attack_threads < 1:
            raise ValueError(f"attack_threads must be >= 1, got {self.attack_threads}")
        if self.recovery_factor < 1.0:
            raise ValueError(
                f"recovery_factor must be >= 1, got {self.recovery_factor}"
            )
        if self.recovery_window <= 0:
            raise ValueError(
                f"recovery_window must be > 0, got {self.recovery_window}"
            )


@dataclass
class SoakReport:
    """What one soak run did and whether it held up.

    ``ok`` is the soak verdict: no reader/writer exceptions and (when
    verification ran) zero oracle parity failures.  Shed queries are
    *expected* under overload and never fail a soak on their own — tests
    bound the shed/degraded **rates** instead.
    """

    config_seed: int
    queries_total: int = 0
    queries_shed: int = 0
    queries_degraded: int = 0
    queries_partial: int = 0
    #: Sharded soaks only: clean memo hits (no per-shard slices to
    #: replay; the record that populated the memo entry was verified).
    queries_memoized: int = 0
    writer_ops: int = 0
    epochs_published: int = 0
    epochs_retired: int = 0
    epochs_live: int = 0
    breaker_transitions: list[tuple[str, str]] = field(default_factory=list)
    parity_checked: int = 0
    parity_failures: list[dict] = field(default_factory=list)
    reader_errors: list[str] = field(default_factory=list)
    writer_errors: list[str] = field(default_factory=list)
    latencies_ms: dict[str, float] = field(default_factory=dict)
    elapsed_seconds: float = 0.0
    metrics: dict = field(default_factory=dict)
    artifact_path: str | None = None
    #: Final per-shard catalogue sizes (empty for single-index soaks) —
    #: the writer-skew fingerprint.
    shard_sizes: list[int] = field(default_factory=list)
    #: Sharded soaks: each shard's own breaker transition history (the
    #: flat ``breaker_transitions`` is their concatenation).
    shard_breaker_transitions: list[list[tuple[str, str]]] = field(
        default_factory=list
    )
    #: Adversarial scenario bookkeeping (scenario != "none" only).
    scenario: str = "none"
    attack_ops_done: int = 0
    attack_errors: list[str] = field(default_factory=list)
    #: ``(begin, end)`` of the attack, seconds relative to soak start.
    attack_window: tuple[float, float] | None = None
    baseline_p99_ms: float = 0.0
    attack_p99_ms: float = 0.0
    #: Seconds after the attack stood down until a query window ran at
    #: p99 within ``recovery_factor`` of baseline again (0.0 = never
    #: degraded past it; ``None`` = never recovered within the run).
    recovery_seconds: float | None = None
    #: ``spam_burst`` only: mean top-K overlap between the final and the
    #: pre-attack rankings over the base queries (1.0 = spam left no
    #: trace in the served rankings).
    rank_correlation: float | None = None
    #: ``spam_burst`` only: the guard's verdict tallies.
    quarantine: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not (
            self.parity_failures
            or self.reader_errors
            or self.writer_errors
            or self.attack_errors
        )

    @property
    def shed_rate(self) -> float:
        attempted = self.queries_total + self.queries_shed
        return self.queries_shed / attempted if attempted else 0.0

    @property
    def degraded_rate(self) -> float:
        return self.queries_degraded / self.queries_total if self.queries_total else 0.0

    def to_dict(self) -> dict:
        return {
            "seed": self.config_seed,
            "queries_total": self.queries_total,
            "queries_shed": self.queries_shed,
            "queries_degraded": self.queries_degraded,
            "queries_partial": self.queries_partial,
            "queries_memoized": self.queries_memoized,
            "shed_rate": self.shed_rate,
            "degraded_rate": self.degraded_rate,
            "writer_ops": self.writer_ops,
            "epochs_published": self.epochs_published,
            "epochs_retired": self.epochs_retired,
            "epochs_live": self.epochs_live,
            "breaker_transitions": self.breaker_transitions,
            "parity_checked": self.parity_checked,
            "parity_failures": self.parity_failures,
            "reader_errors": self.reader_errors,
            "writer_errors": self.writer_errors,
            "latencies_ms": self.latencies_ms,
            "elapsed_seconds": self.elapsed_seconds,
            "shard_sizes": self.shard_sizes,
            "shard_breaker_transitions": self.shard_breaker_transitions,
            "scenario": self.scenario,
            "attack_ops_done": self.attack_ops_done,
            "attack_errors": self.attack_errors,
            "attack_window": self.attack_window,
            "baseline_p99_ms": self.baseline_p99_ms,
            "attack_p99_ms": self.attack_p99_ms,
            "recovery_seconds": self.recovery_seconds,
            "rank_correlation": self.rank_correlation,
            "quarantine": self.quarantine,
            "ok": self.ok,
        }


@dataclass
class _QueryRecord:
    """One served query, held for post-hoc oracle verification."""

    reader: int
    query_id: str
    ids: list[str]
    epoch: object
    omega_served: float
    scored: int
    total: int
    partial: bool
    degraded: bool
    #: Sharded soaks: the per-shard slices (``None`` entries for shards
    #: that missed/failed), or ``None`` for a memoized result.  Each
    #: slice keeps its pinned shard epoch alive for replay.
    shard_results: tuple | None = None
    #: Sharded soaks: the epoch vector the query was served from (the
    #: owner shard's epoch supplies the guest-query payload even when
    #: that shard's slice is missing).
    epochs: tuple | None = None


def _writer_pools(
    dataset, base_ids: list[str], writers: int, router=None
) -> list[list[str]]:
    """Disjoint spare-master pools, one per writer.

    The single-index split is round-robin.  When a *router* that can
    route bare ids is supplied (sharded soaks with the hash router), the
    spares are instead sorted by owner shard and split contiguously, so
    each writer's ingest/retire stream concentrates on one or two shards
    — deliberate writer *skew* across the shard set.
    """
    spares = sorted(
        vid
        for vid, record in dataset.records.items()
        if record.lineage is None and vid not in base_ids
    )
    if len(spares) < writers:
        raise ValueError(
            f"community too small: {len(spares)} spare masters for {writers} writers"
        )
    pools: list[list[str]] = [[] for _ in range(writers)]
    if router is not None and not router.needs_series:
        ordered = sorted(spares, key=lambda vid: (router.route(vid), vid))
        chunk = -(-len(ordered) // writers)  # ceil division
        for index in range(writers):
            pools[index] = ordered[index * chunk : (index + 1) * chunk]
        if not all(pools):
            pools = [[] for _ in range(writers)]  # degenerate: fall back
        else:
            return pools
    for position, vid in enumerate(spares):
        pools[position % writers].append(vid)
    return pools


def _writer_loop(
    gateway: ServingGateway,
    dataset,
    pool: list[str],
    base_ids: list[str],
    config: SoakConfig,
    rng: np.random.Generator,
    report: SoakReport,
    lock: threading.Lock,
) -> None:
    users = sorted(dataset.users)
    own_live: list[str] = []
    ops = 0
    for _ in range(config.writer_ops):
        try:
            spare = [vid for vid in pool if vid not in own_live]
            choice = rng.integers(0, 4)
            if not own_live or (choice == 0 and spare):
                vid = spare[int(rng.integers(0, len(spare)))]
                gateway.ingest_video(dataset.records[vid])
                own_live.append(vid)
            elif choice == 1 or not spare:
                vid = own_live.pop(int(rng.integers(0, len(own_live))))
                gateway.retire_video(vid)
            elif choice == 2:
                pairs = [
                    (
                        users[int(rng.integers(0, len(users)))],
                        base_ids[int(rng.integers(0, len(base_ids)))],
                    )
                    for _ in range(int(rng.integers(1, 4)))
                ]
                gateway.apply_comments(pairs)
            else:
                gateway.advance_watermark(11)
            ops += 1
        except Exception as error:  # noqa: BLE001 - the soak records, never hides
            with lock:
                report.writer_errors.append(f"{type(error).__name__}: {error}")
            return
        if config.writer_pause:
            time.sleep(config.writer_pause)
    with lock:
        report.writer_ops += ops


def _reader_loop(
    gateway: ServingGateway,
    reader: int,
    base_ids: list[str],
    config: SoakConfig,
    rng: np.random.Generator,
    report: SoakReport,
    records: list[_QueryRecord],
    latencies: list[tuple[float, float]],
    lock: threading.Lock,
    t0: float,
) -> None:
    count = config.queries // config.readers
    if reader < config.queries % config.readers:
        count += 1
    for step in range(count):
        query_id = base_ids[int(rng.integers(0, len(base_ids)))]
        deadline = None
        if config.tight_deadline_every and step % config.tight_deadline_every == 1:
            deadline = config.tight_deadline
        started = time.monotonic()
        try:
            result = gateway.recommend(query_id, top_k=config.top_k, deadline=deadline)
        except OverloadedError:
            with lock:
                report.queries_shed += 1
            continue
        except Exception as error:  # noqa: BLE001 - torn read = soak failure
            with lock:
                report.reader_errors.append(
                    f"reader {reader} {query_id!r}: {type(error).__name__}: {error}"
                )
            continue
        elapsed = time.monotonic() - started
        record = _QueryRecord(
            reader=reader,
            query_id=query_id,
            ids=list(result),
            epoch=getattr(result, "epoch", None),
            omega_served=result.omega_served,
            scored=result.scored,
            total=result.total,
            partial=result.partial,
            degraded=result.degraded,
            shard_results=getattr(result, "shard_results", None),
            epochs=getattr(result, "epochs", None),
        )
        with lock:
            report.queries_total += 1
            if result.degraded:
                report.queries_degraded += 1
            if result.partial:
                report.queries_partial += 1
            records.append(record)
            latencies.append((started - t0, elapsed))
        if config.reader_pause:
            time.sleep(config.reader_pause)


def _fault_loop(
    plans: list[FaultPlan], config: SoakConfig, stop: threading.Event
) -> None:
    """Arm periodic fault bursts; with several plans, rotate one per burst.

    Rotation is the sharded failure mode under test: each burst degrades
    exactly *one* shard's social path, so the gateway must keep serving
    (degraded, with a per-shard reason) while the other shards stay
    full-fidelity — and every shard's breaker gets exercised in turn.
    """
    if not config.fault_burst_every or not config.fault_burst:
        return
    burst = 0
    while not stop.wait(config.fault_burst_every):
        plans[burst % len(plans)].arm_failures(SERVE_SOCIAL_POINT, config.fault_burst)
        burst += 1
    # Recovery window: disarm so the breakers can close before the run ends.
    for plan in plans:
        plan.arm_failures(SERVE_SOCIAL_POINT, 0)


@dataclass
class _AttackState:
    """Shared bookkeeping of one adversarial scenario's attack threads."""

    begin: float | None = None
    end: float | None = None
    ops: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def mark_begin(self, stamp: float) -> None:
        with self.lock:
            if self.begin is None or stamp < self.begin:
                self.begin = stamp

    def mark_end(self, stamp: float) -> None:
        with self.lock:
            if self.end is None or stamp > self.end:
                self.end = stamp

    def add_ops(self, count: int) -> None:
        with self.lock:
            self.ops += count


def _progress(report: SoakReport, lock: threading.Lock) -> int:
    """Resolved reader queries so far (served, shed or errored)."""
    with lock:
        return (
            report.queries_total + report.queries_shed + len(report.reader_errors)
        )


def _await_attack_start(
    config: SoakConfig, report: SoakReport, lock: threading.Lock
) -> None:
    threshold = int(config.attack_start * config.queries)
    while _progress(report, lock) < threshold:
        time.sleep(0.001)


def _attack_over(
    config: SoakConfig, report: SoakReport, lock: threading.Lock, ops: int
) -> bool:
    if ops >= config.attack_ops:
        return True
    # Floor: even when the readers outran the window, the attack lands a
    # meaningful volume so its report fields measure something real.
    if ops < max(1, config.attack_ops // 8):
        return False
    return _progress(report, lock) >= int(config.attack_end * config.queries)


def _record_attack_error(
    report: SoakReport, lock: threading.Lock, error: Exception
) -> None:
    with lock:
        report.attack_errors.append(f"{type(error).__name__}: {error}")


def _flash_crowd_loop(
    gateway,
    hot_id: str,
    config: SoakConfig,
    report: SoakReport,
    state: _AttackState,
    lock: threading.Lock,
    t0: float,
) -> None:
    """One flash-crowd reader: identical hot-key queries, no pause.

    Sheds are expected (the crowd *is* the overload); any other failure
    is an attack error.  The defended gateway collapses the crowd's
    concurrent memo misses into single scans via singleflight.
    """
    _await_attack_start(config, report, lock)
    state.mark_begin(time.monotonic() - t0)
    ops = 0
    try:
        while not _attack_over(config, report, lock, ops):
            try:
                gateway.recommend(hot_id, top_k=config.top_k)
            except OverloadedError:
                pass
            ops += 1
    except Exception as error:  # noqa: BLE001 - recorded, never hidden
        _record_attack_error(report, lock, error)
    state.add_ops(ops)
    state.mark_end(time.monotonic() - t0)


def _spam_burst_loop(
    gateway,
    guard: SpamGuard | None,
    spam_users: list[str],
    base_ids: list[str],
    config: SoakConfig,
    report: SoakReport,
    state: _AttackState,
    lock: threading.Lock,
    t0: float,
    rng: np.random.Generator,
) -> None:
    """The spam flood: every attacker bursts comments at the base videos.

    With a *guard*, each batch routes through :meth:`SpamGuard.filter`
    exactly as the HTTP front-end's apply path does — passed pairs apply,
    revoked pairs un-apply; without one, the flood lands unfiltered (the
    unmitigated baseline the rank-correlation measurement exposes).
    """
    _await_attack_start(config, report, lock)
    state.mark_begin(time.monotonic() - t0)
    ops = 0
    try:
        while not _attack_over(config, report, lock, ops):
            pairs = [
                (user, base_ids[int(rng.integers(0, len(base_ids)))])
                for user in spam_users
                for _ in range(4)
            ]
            if guard is not None:
                verdict = guard.filter(pairs)
                if verdict.passed:
                    gateway.apply_comments(verdict.passed)
                if verdict.revoked:
                    gateway.remove_comments(verdict.revoked)
            else:
                gateway.apply_comments(pairs)
            ops += len(pairs)
            if config.attack_pause:
                time.sleep(config.attack_pause)
    except Exception as error:  # noqa: BLE001 - recorded, never hidden
        _record_attack_error(report, lock, error)
    state.add_ops(ops)
    state.mark_end(time.monotonic() - t0)


def _retire_storm_loop(
    gateway,
    dataset,
    storm_pool: list[str],
    config: SoakConfig,
    report: SoakReport,
    state: _AttackState,
    lock: threading.Lock,
    t0: float,
) -> None:
    """The mutation storm: ingest/retire churn as fast as it will go.

    Every cycle is two mutations — without a publish governor that is
    two epoch publications (plus memo and response-cache invalidations);
    with one, publication amortizes to the configured interval.
    """
    _await_attack_start(config, report, lock)
    state.mark_begin(time.monotonic() - t0)
    ops = 0
    live: list[str] = []
    try:
        while not _attack_over(config, report, lock, ops):
            if live:
                gateway.retire_video(live.pop())
            else:
                vid = storm_pool[(ops // 2) % len(storm_pool)]
                gateway.ingest_video(dataset.records[vid])
                live.append(vid)
            ops += 1
            if config.attack_pause:
                time.sleep(config.attack_pause)
        for vid in live:
            gateway.retire_video(vid)
    except Exception as error:  # noqa: BLE001 - recorded, never hidden
        _record_attack_error(report, lock, error)
    state.add_ops(ops)
    state.mark_end(time.monotonic() - t0)


def _measure_attack(
    latencies: list[tuple[float, float]],
    state: _AttackState,
    config: SoakConfig,
    report: SoakReport,
) -> None:
    """Fill the report's attack-window latency + recovery-SLO fields.

    The recovery SLO (DESIGN §16): *recovered* means a
    ``recovery_window``-wide bucket of post-attack queries whose p99 is
    within ``recovery_factor`` of the pre-attack baseline p99.
    ``recovery_seconds`` is the offset of the first such bucket past the
    attack's end — 0.0 when the very first bucket is already healthy,
    ``None`` when no bucket recovers before the run ends.
    """
    if state.begin is None or state.end is None:
        return
    report.attack_window = (state.begin, state.end)
    before = [seconds for stamp, seconds in latencies if stamp < state.begin]
    during = [
        seconds for stamp, seconds in latencies if state.begin <= stamp <= state.end
    ]
    after = sorted(
        (stamp, seconds) for stamp, seconds in latencies if stamp > state.end
    )
    if not before or not during:
        return
    baseline = float(np.percentile(np.asarray(before), 99))
    report.baseline_p99_ms = baseline * 1000.0
    report.attack_p99_ms = float(np.percentile(np.asarray(during), 99)) * 1000.0
    threshold = config.recovery_factor * baseline
    bucket_of = lambda stamp: int((stamp - state.end) // config.recovery_window)
    buckets: dict[int, list[float]] = {}
    for stamp, seconds in after:
        buckets.setdefault(bucket_of(stamp), []).append(seconds)
    for bucket in sorted(buckets):
        if float(np.percentile(np.asarray(buckets[bucket]), 99)) <= threshold:
            report.recovery_seconds = bucket * config.recovery_window
            break


def _rank_overlap(before: dict[str, list[str]], after: dict[str, list[str]]) -> float:
    """Mean top-K set overlap between two ranking maps (1.0 = identical)."""
    fractions = [
        len(set(before[qid]) & set(after[qid])) / max(1, len(before[qid]))
        for qid in before
    ]
    return float(np.mean(fractions)) if fractions else 1.0


def _verify(records: list[_QueryRecord], config: SoakConfig, report: SoakReport) -> None:
    """Replay every query against a serial oracle on its pinned epoch.

    The oracle is a fresh single-threaded recommender over the frozen
    epoch; a result must be bit-identical to ranking the components of
    its scored candidate prefix.  Results are cached per
    ``(epoch, omega, query, scored)`` — under a handful of base queries
    and bounded epochs the cache turns 10k verifications into a few
    hundred oracle evaluations.

    Sharded records (``shard_results`` present) dispatch to
    :func:`_verify_sharded`; memoized sharded records are counted and
    skipped (their producing record was verified under the same vector).
    """
    oracles: dict[tuple, FusionRecommender] = {}
    cache: dict[tuple, list[str]] = {}
    for record in records:
        if record.shard_results is not None:
            _verify_sharded(record, config, report, oracles, cache)
            continue
        if record.epoch is None:
            # Sharded memo hit: the record that populated the entry was
            # served (and verified) under the same epoch vector.
            report.queries_memoized += 1
            continue
        epoch = record.epoch
        key = (epoch.epoch_id, record.omega_served, record.query_id, record.scored)
        expected = cache.get(key)
        if expected is None:
            oracle = oracles.get(key[:2])
            if oracle is None:
                oracle = epoch.recommender(
                    omega=record.omega_served,
                    time_budget=None,
                    social_mode=config.social_mode,
                )
                oracles[key[:2]] = oracle
            candidates = [vid for vid in epoch.video_ids if vid != record.query_id]
            prefix = candidates[: record.scored]
            content, social = oracle._score_arrays(
                record.query_id, prefix, record.omega_served
            )
            components = {
                vid: (float(c), float(s))
                for vid, c, s in zip(prefix, content, social)
            }
            expected = rank_components(components, record.omega_served, config.top_k)
            cache[key] = expected
        report.parity_checked += 1
        if record.ids != expected:
            report.parity_failures.append(
                {
                    "reader": record.reader,
                    "query_id": record.query_id,
                    "epoch_id": epoch.epoch_id,
                    "omega_served": record.omega_served,
                    "scored": record.scored,
                    "total": record.total,
                    "got": record.ids,
                    "expected": expected,
                }
            )


def _verify_sharded(
    record: _QueryRecord,
    config: SoakConfig,
    report: SoakReport,
    oracles: dict,
    cache: dict,
) -> None:
    """Replay one sharded query: slice fidelity + merged-ranking oracle.

    Three layers, all bitwise.  First, re-merging the recorded slices by
    ``(-score, id)`` must reproduce the served merged ranking.  Second,
    every recorded slice must carry exactly its shard oracle's fused
    scores for its ids, in ``(-score, id)`` order — queried as a guest
    with the owner shard's signature series and SAR row, exactly as the
    gateway scattered it.  A slice is deliberately *not* required to be
    a full local top-K: the deadline-free scatter chains the pruning
    threshold across shards, so later slices come back trimmed to the
    candidates that could still enter the merged top-K.  Third, the
    end-to-end check.  For deadline-free records (``partial`` unset;
    possibly trimmed slices) the served merged ranking must equal the
    deterministic merge of every *present* shard's FULL local oracle
    top-K — this is where unsound trimming would surface.  Deadline
    records (``partial`` set) are scattered through the pooled path
    without chaining, so each slice is instead replayed as its shard's
    oracle over the scored candidate prefix (the chunked scan is
    prefix-deterministic: ``scored`` is always chunk-aligned).
    """

    def fail(check: str, got: list, expected: list) -> None:
        report.parity_failures.append(
            {
                "reader": record.reader,
                "query_id": record.query_id,
                "check": check,
                "omega_served": record.omega_served,
                "scored": record.scored,
                "total": record.total,
                "got": got,
                "expected": expected,
            }
        )

    report.parity_checked += 1
    slices = [r for r in record.shard_results if r is not None]
    entries: list[tuple[float, str]] = []
    for r in slices:
        scores = r.scores if r.scores is not None else []
        entries.extend(zip(scores, r))
    entries.sort(key=lambda entry: (-entry[0], entry[1]))
    expected_merged = [vid for _, vid in entries[: config.top_k]]
    if record.ids != expected_merged:
        fail("merge", record.ids, expected_merged)
        return
    # The owner shard's epoch supplies the guest-query payload the
    # gateway scattered with (the soak runs the default "sar-h" mode).
    owner_epoch = next(
        (
            epoch
            for epoch in (record.epochs or ())
            if record.query_id in epoch.series
        ),
        None,
    )
    query_series = None
    query_vector = None
    if owner_epoch is not None:
        query_series = owner_epoch.series[record.query_id]
        if owner_epoch.social_store.available and owner_epoch.video_ids:
            row = int(np.searchsorted(owner_epoch._ids_array, record.query_id))
            if config.social_mode in ("sar", "sar-h"):
                query_vector = owner_epoch.sar_matrix(config.social_mode)[row]
            elif config.social_mode == "sketch":
                matrix, sizes = owner_epoch.sketch_matrix()
                query_vector = (matrix[row], int(sizes[row]))

    def shard_components(r, ids: list[str]) -> dict:
        """``{id: (content, social)}`` from *r*'s shard oracle."""
        oracle_key = (r.shard_id, r.epoch.epoch_id, r.omega_served)
        oracle = oracles.get(oracle_key)
        if oracle is None:
            oracle = r.epoch.recommender(
                omega=r.omega_served,
                time_budget=None,
                social_mode=config.social_mode,
            )
            oracles[oracle_key] = oracle
        content, social = oracle._score_arrays(
            record.query_id,
            ids,
            r.omega_served,
            query_series=query_series,
            query_vector=query_vector,
        )
        return {
            vid: (float(c), float(s)) for vid, c, s in zip(ids, content, social)
        }

    # Slice fidelity: exactly the oracle's fused scores for these ids,
    # ordered the way the merge expects.
    for r in slices:
        ids = list(r)
        scores = list(r.scores) if r.scores is not None else []
        if len(scores) != len(ids):
            fail(f"shard {r.shard_id} scores", scores, ids)
            return
        key = (
            "slice",
            r.shard_id,
            r.epoch.epoch_id,
            r.omega_served,
            record.query_id,
            tuple(ids),
        )
        expected_scores = cache.get(key)
        if expected_scores is None:
            components = shard_components(r, ids)
            expected_scores = [
                fuse_fj(*components[vid], r.omega_served) for vid in ids
            ]
            cache[key] = expected_scores
        if scores != expected_scores:
            fail(f"shard {r.shard_id} scores", scores, expected_scores)
            return
        ordered = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
        if ordered != list(range(len(ids))):
            fail(f"shard {r.shard_id} order", ids, [ids[i] for i in ordered])
            return

    if record.partial:
        # Pooled (deadline) scatter: no threshold chaining — each slice
        # is its shard's oracle over the scored candidate prefix.
        for r in slices:
            key = (
                "prefix",
                r.shard_id,
                r.epoch.epoch_id,
                r.omega_served,
                record.query_id,
                r.scored,
            )
            expected = cache.get(key)
            if expected is None:
                candidates = [
                    vid for vid in r.epoch.video_ids if vid != record.query_id
                ]
                prefix = candidates[: r.scored]
                if prefix:
                    expected = rank_components(
                        shard_components(r, prefix), r.omega_served, config.top_k
                    )
                else:
                    expected = []
                cache[key] = expected
            if list(r) != expected:
                fail(f"shard {r.shard_id}", list(r), expected)
                return
    else:
        # Deadline-free scatter: slices may be threshold-trimmed, but
        # only of candidates provably outside the merged top-K — so the
        # merge of every present shard's FULL local oracle top-K must
        # reproduce the served merged ranking bit-identically.
        full_entries: list[tuple[float, str]] = []
        for r in slices:
            key = (
                "full",
                r.shard_id,
                r.epoch.epoch_id,
                r.omega_served,
                record.query_id,
            )
            expected = cache.get(key)
            if expected is None:
                candidates = [
                    vid for vid in r.epoch.video_ids if vid != record.query_id
                ]
                if candidates:
                    expected = rank_components_scored(
                        shard_components(r, candidates),
                        r.omega_served,
                        config.top_k,
                    )
                else:
                    expected = ([], [])
                cache[key] = expected
            full_entries.extend(zip(expected[1], expected[0]))
        full_entries.sort(key=lambda entry: (-entry[0], entry[1]))
        expected_full = [vid for _, vid in full_entries[: config.top_k]]
        if record.ids != expected_full:
            fail("full-merge", record.ids, expected_full)
            return


def _dump_artifact(config: SoakConfig, report: SoakReport) -> str | None:
    directory = os.environ.get("CHAOS_ARTIFACT_DIR")
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"chaos_soak_seed{config.seed}.json")
    schedule = {
        "config": {
            "writers": config.writers,
            "readers": config.readers,
            "queries": config.queries,
            "top_k": config.top_k,
            "seed": config.seed,
            "hours": config.hours,
            "base_videos": config.base_videos,
            "writer_ops": config.writer_ops,
            "tight_deadline_every": config.tight_deadline_every,
            "tight_deadline": config.tight_deadline,
            "fault_burst_every": config.fault_burst_every,
            "fault_burst": config.fault_burst,
            "shards": config.shards,
            "router": config.router,
            "scenario": config.scenario,
            "attack_start": config.attack_start,
            "attack_end": config.attack_end,
            "attack_threads": config.attack_threads,
            "attack_ops": config.attack_ops,
            "recovery_factor": config.recovery_factor,
            "recovery_window": config.recovery_window,
            "defense": None if config.defense is None else vars(config.defense),
        },
        "report": report.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(schedule, handle, indent=2)
    return path


def _recover_breakers(
    gateways, top_k: int, cooldown: float, timeout: float = 2.0
) -> None:
    """Probe every non-closed breaker of *gateways* until all close (or
    *timeout* passes), querying each gateway directly with a video its
    current epoch holds: the sharded gateway answers from its memo
    before it scatters, so a query through it may never reach a shard."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        waiting = [gw for gw in gateways if gw.breaker.state != "closed"]
        if not waiting:
            return
        time.sleep(cooldown)
        for gw in waiting:
            held = gw.video_ids
            try:
                if held:
                    gw.recommend(held[0], top_k=top_k)
            except OverloadedError:  # pragma: no cover - drained by now
                pass


def run_soak(config: SoakConfig | None = None) -> SoakReport:
    """Run one seeded chaos soak; see the module docstring for the shape.

    Runs against a private :class:`~repro.obs.MetricsRegistry` (scoped via
    :func:`~repro.obs.use_metrics`), whose snapshot lands in
    ``report.metrics`` — a soak never pollutes the process registry.
    """
    config = config or SoakConfig()
    report = SoakReport(config_seed=config.seed, scenario=config.scenario)
    workload = build_workload(hours=config.hours, seed=config.seed % (2**31))
    dataset = workload.dataset
    masters = sorted(
        vid for vid, record in dataset.records.items() if record.lineage is None
    )
    base_ids = masters[: config.base_videos]
    if len(base_ids) < config.base_videos:
        raise ValueError(
            f"community too small: {len(base_ids)} masters for "
            f"{config.base_videos} base videos"
        )
    rec_config = RecommenderConfig(k=12)
    sharded = config.shards > 1
    router = make_router(config.router, config.shards, rec_config) if sharded else None
    pools = _writer_pools(dataset, base_ids, config.writers, router=router)
    if sharded:
        index = ShardedIndex.build(
            dataset.subset(base_ids), rec_config, config.shards, router=router
        )
    else:
        index = LiveCommunityIndex(dataset.subset(base_ids), rec_config)
    for part in index.shards if sharded else [index]:
        part.dataset.comments = list(dataset.comments)
    plans = [FaultPlan() for _ in range(config.shards)]
    # The retire storm churns its own pool, stolen from the writers so
    # storm and writer mutations never touch the same video.
    storm_pool: list[str] = []
    if config.scenario == "retire_storm":
        for pool in pools:
            while len(pool) > 2 and len(storm_pool) < 4 * config.writers:
                storm_pool.append(pool.pop())
        if not storm_pool:
            raise ValueError("community too small for a retire storm pool")
    gateway_config = config.gateway
    if config.defense is not None:
        gateway_config = replace(gateway_config, defense=config.defense)
    guard: SpamGuard | None = None
    if (
        config.scenario == "spam_burst"
        and config.defense is not None
        and config.defense.quarantine
    ):
        store = index.social_store

        def _membership(user: str, video: str) -> bool:
            descriptor = store.descriptors.get(video)
            return descriptor is not None and user in descriptor.users

        guard = SpamGuard(config.defense, membership=_membership)
    metrics = MetricsRegistry()
    started = time.monotonic()
    with use_metrics(metrics):
        gateway = serving_gateway(
            index,
            config=gateway_config,
            faults=plans if sharded else plans[0],
            seed=config.seed,
            social_mode=config.social_mode,
        )
        baseline_rank: dict[str, list[str]] = {}
        if config.scenario == "spam_burst":
            baseline_rank = {
                qid: list(gateway.recommend(qid, top_k=config.top_k))
                for qid in base_ids
            }
        lock = threading.Lock()
        records: list[_QueryRecord] = []
        latencies: list[tuple[float, float]] = []
        stop = threading.Event()
        fault_thread = threading.Thread(
            target=_fault_loop, args=(plans, config, stop), name="chaos-faults"
        )
        # The spam scenario stands the regular writers down: with the
        # only mutations being (guarded) spam, the final-vs-baseline
        # rank correlation isolates exactly the spam's surviving trace.
        spawn_writers = config.scenario != "spam_burst"
        writer_threads = [
            threading.Thread(
                target=_writer_loop,
                args=(
                    gateway,
                    dataset,
                    pools[i],
                    base_ids,
                    config,
                    np.random.default_rng(config.seed + 1000 + i),
                    report,
                    lock,
                ),
                name=f"chaos-writer-{i}",
            )
            for i in range(config.writers if spawn_writers else 0)
        ]
        reader_threads = [
            threading.Thread(
                target=_reader_loop,
                args=(
                    gateway,
                    i,
                    base_ids,
                    config,
                    np.random.default_rng(config.seed + 2000 + i),
                    report,
                    records,
                    latencies,
                    lock,
                    started,
                ),
                name=f"chaos-reader-{i}",
            )
            for i in range(config.readers)
        ]
        attack_state = _AttackState()
        attack_threads: list[threading.Thread] = []
        if config.scenario == "flash_crowd":
            attack_threads = [
                threading.Thread(
                    target=_flash_crowd_loop,
                    args=(
                        gateway,
                        base_ids[0],
                        config,
                        report,
                        attack_state,
                        lock,
                        started,
                    ),
                    name=f"chaos-crowd-{i}",
                )
                for i in range(config.attack_threads)
            ]
        elif config.scenario == "spam_burst":
            spam_users = [f"spammer-{i:03d}" for i in range(config.attack_threads)]
            attack_threads = [
                threading.Thread(
                    target=_spam_burst_loop,
                    args=(
                        gateway,
                        guard,
                        spam_users,
                        base_ids,
                        config,
                        report,
                        attack_state,
                        lock,
                        started,
                        np.random.default_rng(config.seed + 3000),
                    ),
                    name="chaos-spam",
                )
            ]
        elif config.scenario == "retire_storm":
            attack_threads = [
                threading.Thread(
                    target=_retire_storm_loop,
                    args=(
                        gateway,
                        dataset,
                        storm_pool,
                        config,
                        report,
                        attack_state,
                        lock,
                        started,
                    ),
                    name="chaos-storm",
                )
            ]
        fault_thread.start()
        for thread in writer_threads + reader_threads + attack_threads:
            thread.start()
        for thread in reader_threads:
            thread.join()
        for thread in writer_threads + attack_threads:
            thread.join()
        stop.set()
        fault_thread.join()
        report.attack_ops_done = attack_state.ops
        # Snapshot serving metrics now: the breaker-recovery queries
        # below are post-soak bookkeeping, not soak traffic, and must
        # not skew the counters the tests reconcile against the report.
        report.metrics = metrics.snapshot()
        # Let every breaker recover (faults are disarmed) so the report
        # can assert the full trip -> open -> half-open -> closed cycle.
        shard_gateways = gateway.gateways if sharded else [gateway]
        if report.queries_total:
            _recover_breakers(
                shard_gateways, config.top_k, config.gateway.breaker_cooldown
            )
        if config.scenario == "spam_burst":
            final_rank = {
                qid: list(gateway.recommend(qid, top_k=config.top_k))
                for qid in base_ids
            }
            report.rank_correlation = _rank_overlap(baseline_rank, final_rank)
            if guard is not None:
                report.quarantine = {
                    "suspect_users": guard.suspect_users,
                    "held_comments": guard.held_comments,
                    "confirmed_users": sum(
                        1
                        for user in (
                            f"spammer-{i:03d}" for i in range(config.attack_threads)
                        )
                        if guard.state_of(user) == "confirmed"
                    ),
                }
        gateway.close()
    report.elapsed_seconds = time.monotonic() - started
    report.epochs_published = sum(gw.epochs.published_total for gw in shard_gateways)
    report.epochs_retired = sum(gw.epochs.retired_total for gw in shard_gateways)
    report.epochs_live = sum(gw.epochs.live_count for gw in shard_gateways)
    for gw in shard_gateways:
        report.breaker_transitions.extend(gw.breaker.transitions)
    if sharded:
        report.shard_sizes = index.shard_sizes()
        report.shard_breaker_transitions = [
            list(gw.breaker.transitions) for gw in shard_gateways
        ]
    if latencies:
        ordered = np.sort(np.asarray([seconds for _, seconds in latencies]))
        report.latencies_ms = {
            "p50": float(np.percentile(ordered, 50) * 1000),
            "p99": float(np.percentile(ordered, 99) * 1000),
            "max": float(ordered[-1] * 1000),
        }
    if config.scenario != "none":
        _measure_attack(latencies, attack_state, config, report)
    if config.verify:
        _verify(records, config, report)
    if not report.ok:
        report.artifact_path = _dump_artifact(config, report)
    return report
