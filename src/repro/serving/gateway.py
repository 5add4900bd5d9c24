"""The concurrent serving gateway: one writer, many lock-free readers.

:class:`ServingGateway` fronts a :class:`~repro.core.pipeline.LiveCommunityIndex`
and gives every query an immutable epoch view while mutations stream in:

* **writes** (`ingest_video` / `retire_video` / `apply_comments` /
  `advance_watermark`) are serialized under one writer lock; each
  mutation publishes a fresh :class:`~repro.serving.epoch.CommunityEpoch`
  (copy-on-write snapshot, O(videos));
* **reads** pin the current epoch and scan it without locks.  Admission
  control bounds concurrency: beyond ``max_concurrency`` in-flight
  queries, up to ``queue_depth`` requests wait (no longer than
  ``queue_timeout`` or their own deadline); everything else is **shed**
  with a typed :class:`~repro.errors.OverloadedError`;
* each request carries a **deadline** that threads into the
  recommender's chunked candidate scan — an expired deadline returns the
  best-effort prefix flagged ``partial`` instead of blowing the budget;
* the **social path** is guarded by a circuit breaker: repeated
  failures (``FaultPlan``-injected at the registered
  ``serve.social_scores`` point) trip it open, open requests serve
  content-only rankings via ω-renormalisation flagged ``degraded``, and
  half-open probes close it once the dependency recovers.  Transient
  fault classes are retried with seeded jittered exponential backoff
  before they count as breaker failures.

The mutation facade, publish control and admitted request path live in
:class:`GatewayCore`, which :class:`ServingGateway` and the sharded
:class:`~repro.sharding.gateway.ShardedGateway` both extend.

Everything is instrumented into the process-wide
:func:`repro.obs.get_metrics` registry under ``repro_serving_*`` names
(see DESIGN §11 for the full list).
"""

from __future__ import annotations

import random
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.core.recommender import FusionRecommender, Recommendations
from repro.defense.backpressure import PublishGovernor
from repro.defense.coalesce import TIMEOUT, SingleFlight
from repro.defense.config import DefenseConfig
from repro.errors import OverloadedError
from repro.obs import get_metrics
from repro.serving.breaker import STATE_CODES, CircuitBreaker
from repro.serving.epoch import CommunityEpoch, EpochManager
from repro.testing.faults import (
    NO_FAULTS,
    InjectedCrashError,
    InjectedFaultError,
    register_crash_point,
)

__all__ = [
    "GatewayConfig",
    "GatewayCore",
    "ServingGateway",
    "SERVE_SOCIAL_POINT",
    "SERVE_PUBLISH_POINT",
]

#: The social dependency call of every fused query — transient faults
#: armed here are retried, then charged to the circuit breaker.
SERVE_SOCIAL_POINT = register_crash_point(
    "serve.social_scores",
    "serving gateway: social relevance dependency call (breaker-guarded)",
)

#: Epoch publication after a mutation — an abort here models a crash
#: between applying a mutation and publishing it (readers keep serving
#: the previous epoch until the next successful publish).
SERVE_PUBLISH_POINT = register_crash_point(
    "serve.publish_epoch",
    "serving gateway: epoch snapshot publication after a mutation",
)


@dataclass(frozen=True)
class GatewayConfig:
    """Serving knobs of :class:`ServingGateway`.

    Attributes
    ----------
    max_concurrency:
        Queries scanning concurrently; beyond this, requests queue.
    queue_depth:
        Bounded admission queue; a full queue sheds immediately.
    queue_timeout:
        Longest a queued request waits for a slot (its own deadline may
        cut that shorter) before being shed.
    default_deadline:
        Per-request deadline in seconds applied when the caller passes
        none (``None`` = unlimited scan).
    breaker_failure_threshold / breaker_cooldown / breaker_probes /
    breaker_successes:
        Circuit-breaker tuning (see :class:`~repro.serving.breaker.CircuitBreaker`).
    retry_attempts:
        Retries of a *transient* social-path failure before it counts as
        a breaker failure.
    retry_backoff:
        Base backoff delay in seconds (doubles per attempt).
    retry_jitter:
        Uniform jitter fraction added to each backoff delay (0 = none).
    memo_capacity:
        Entries of the epoch-keyed query-result memo (LRU-evicted; 0
        disables memoization).  A repeated ``(query, top_k, ω,
        deadline-class)`` on an unchanged epoch is answered from the memo
        without rescanning; any epoch publication invalidates the whole
        memo, so a hit can never serve pre-mutation rankings.
    defense:
        Optional :class:`~repro.defense.config.DefenseConfig` arming the
        adversarial-workload defense layer (singleflight coalescing,
        hot-key priority admission, publish backpressure).  ``None`` (or
        the all-default instance) keeps behaviour bit-identical to a
        gateway without the defense layer.
    """

    max_concurrency: int = 8
    queue_depth: int = 16
    queue_timeout: float = 0.25
    default_deadline: float | None = None
    breaker_failure_threshold: int = 5
    breaker_cooldown: float = 0.5
    breaker_probes: int = 1
    breaker_successes: int = 1
    retry_attempts: int = 2
    retry_backoff: float = 0.002
    retry_jitter: float = 0.5
    memo_capacity: int = 1024
    defense: DefenseConfig | None = None

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {self.max_concurrency}")
        if self.queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {self.queue_depth}")
        if self.queue_timeout < 0:
            raise ValueError(f"queue_timeout must be >= 0, got {self.queue_timeout}")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ValueError(
                f"default_deadline must be > 0, got {self.default_deadline}"
            )
        if self.retry_attempts < 0:
            raise ValueError(f"retry_attempts must be >= 0, got {self.retry_attempts}")
        if self.memo_capacity < 0:
            raise ValueError(f"memo_capacity must be >= 0, got {self.memo_capacity}")


class _QueryMemo:
    """Bounded LRU memo of fully-served query results, epoch-keyed.

    Keys are ``(epoch_key, query_id, top_k, deadline_class)``;
    values are finished :class:`Recommendations`.  Only *clean* results
    belong here — the gateway never inserts partial or degraded rankings,
    and :meth:`invalidate` drops everything at each epoch publication, so
    a hit is always the exact answer the scan would recompute.  All
    operations take one small lock; a hit is a dict move-to-end, which is
    what makes repeated heavy-hitter queries O(1).
    """

    __slots__ = ("_capacity", "_entries", "_lock")

    def __init__(self, capacity: int) -> None:
        self._capacity = int(capacity)
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple):
        """The memoized result for *key* (refreshing LRU), or ``None``."""
        if self._capacity == 0:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def contains(self, key: tuple) -> bool:
        """Residency peek (no LRU refresh) — hot-key admission priority."""
        if self._capacity == 0:
            return False
        with self._lock:
            return key in self._entries

    def put(self, key: tuple, value, metrics) -> None:
        """Insert *value*; evicts the least-recently-used entry when full."""
        if self._capacity == 0:
            return
        with self._lock:
            if key not in self._entries and len(self._entries) >= self._capacity:
                self._entries.popitem(last=False)
                metrics.inc("repro_serving_memo_evict_total")
            self._entries[key] = value
            self._entries.move_to_end(key)

    def invalidate(self, metrics=None) -> None:
        """Drop every entry (called at each epoch publication).

        Counts the dropped entries into
        ``repro_serving_memo_invalidate_total`` so the memo's ledger
        reconciles: puts = hits' source entries = evictions +
        invalidations + entries still resident.
        """
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
        if dropped and metrics is not None:
            metrics.inc("repro_serving_memo_invalidate_total", dropped)


class _AdmissionGate:
    """Condition-variable admission control: bounded concurrency + queue.

    Owned by :class:`GatewayCore`, so the sharded gateway has one global
    gate over its whole scatter (admission is per *request*, not per
    shard).  Beyond *max_concurrency* in-flight requests, up to
    *queue_depth* wait (no longer than *queue_timeout* or their own
    deadline); everything else is shed with
    :class:`~repro.errors.OverloadedError`.
    """

    #: EWMA smoothing of the per-query service time feeding the
    #: ``retry_after_ms`` shed hint (higher = reacts faster to load shifts).
    SERVICE_EWMA_ALPHA = 0.2
    #: Hint fallback before any query has completed (seconds).
    DEFAULT_SERVICE_TIME = 0.05

    def __init__(
        self,
        max_concurrency: int,
        queue_depth: int,
        queue_timeout: float,
        hot_priority: bool = False,
    ) -> None:
        self._max_concurrency = max_concurrency
        self._queue_depth = queue_depth
        self._queue_timeout = queue_timeout
        #: Skew-aware shedding (defense layer): a *hot* request — one
        #: whose answer is already memoized, so admitting it costs a
        #: dict lookup, not a scan — is admitted ahead of queued cold
        #: scans when the gate is backlogged.
        self._hot_priority = bool(hot_priority)
        self._cond = threading.Condition(threading.Lock())
        self._inflight = 0
        self._waiting = 0
        self._waiting_hot = 0
        self._avg_service: float | None = None

    def record_service_time(self, seconds: float) -> None:
        """Fold one completed query's wall-clock into the EWMA (thread-safe)."""
        seconds = float(seconds)
        with self._cond:
            if self._avg_service is None:
                self._avg_service = seconds
            else:
                alpha = self.SERVICE_EWMA_ALPHA
                self._avg_service += alpha * (seconds - self._avg_service)

    def retry_after_ms(self) -> float:
        """Backoff hint for a shed request, in milliseconds.

        Queue-theory estimate: the shed request would sit behind the
        whole backlog (everything in flight beyond the slots it can
        claim immediately, plus everyone already queued), drained at one
        query per ``avg_service / max_concurrency`` seconds.  Computed
        under the gate lock by :meth:`admit`; callers get it on the
        raised :class:`~repro.errors.OverloadedError`.
        """
        with self._cond:
            return self._retry_after_ms_locked()

    def _retry_after_ms_locked(self) -> float:
        avg = self._avg_service
        if avg is None or avg <= 0:
            avg = self.DEFAULT_SERVICE_TIME
        backlog = max(self._inflight - self._max_concurrency, 0) + self._waiting + 1
        return max(1.0, 1000.0 * avg * backlog / self._max_concurrency)

    def admit(self, deadline_at: float | None, metrics, hot: bool = False) -> None:
        hot = hot and self._hot_priority
        with self._cond:
            if self._inflight < self._max_concurrency and (
                hot or not (self._hot_priority and self._waiting_hot)
            ):
                self._inflight += 1
                metrics.set_gauge("repro_serving_inflight", self._inflight)
                return
            if self._waiting >= self._queue_depth:
                metrics.inc("repro_serving_shed_total", reason="queue_full")
                raise OverloadedError(
                    f"{self._inflight} queries in flight and the admission "
                    f"queue of {self._queue_depth} is full",
                    retry_after_ms=self._retry_after_ms_locked(),
                )
            self._waiting += 1
            if hot:
                self._waiting_hot += 1
            metrics.set_gauge("repro_serving_queue_depth", self._waiting)
            try:
                limit = time.monotonic() + self._queue_timeout
                if deadline_at is not None:
                    limit = min(limit, deadline_at)
                # A cold scan additionally yields while hot (memo-backed)
                # requests are queued: under a flash crowd the backlog
                # drains at memo speed instead of scan speed.
                while self._inflight >= self._max_concurrency or (
                    not hot and self._waiting_hot > 0
                ):
                    remaining = limit - time.monotonic()
                    if remaining <= 0:
                        metrics.inc("repro_serving_shed_total", reason="queue_timeout")
                        raise OverloadedError(
                            "queued request outwaited its admission budget "
                            f"({self._waiting} queued, {self._inflight} in flight)",
                            retry_after_ms=self._retry_after_ms_locked(),
                        )
                    self._cond.wait(remaining)
                self._inflight += 1
                if hot:
                    metrics.inc("repro_defense_hot_admissions_total")
                metrics.set_gauge("repro_serving_inflight", self._inflight)
            finally:
                self._waiting -= 1
                if hot:
                    self._waiting_hot -= 1
                    # Cold waiters park on the hot count too; wake them
                    # whenever it drops.
                    self._cond.notify_all()
                metrics.set_gauge("repro_serving_queue_depth", self._waiting)

    def release(self, metrics, service_seconds: float | None = None) -> None:
        if service_seconds is not None:
            self.record_service_time(service_seconds)
        with self._cond:
            self._inflight -= 1
            metrics.set_gauge("repro_serving_inflight", self._inflight)
            if self._hot_priority:
                self._cond.notify_all()
            else:
                self._cond.notify()


class GatewayCore:
    """The write and request path the single and sharded gateways share.

    :class:`ServingGateway` (one index, one epoch) and
    :class:`~repro.sharding.gateway.ShardedGateway` (S shards, one epoch
    vector) are siblings under this base.  It owns:

    * the **mutation facade** — ``ingest_video`` / ``retire_video`` /
      ``apply_comments`` / ``remove_comments`` / ``advance_watermark``,
      serialized under one writer lock over ``self._master`` (a
      :class:`~repro.core.pipeline.LiveCommunityIndex` or a
      :class:`~repro.sharding.shard.ShardedIndex`, which take the same
      five calls);
    * **publish control** — one publication per mutation or per
      :meth:`mutations` block, deferred under the defense layer's
      :class:`~repro.defense.backpressure.PublishGovernor` and flushed
      by a one-shot timer; every path ends in the subclass's
      ``_publish_now()``;
    * the **request path** — deadline resolution, the hot-priority peek
      and singleflight coalescing in :meth:`recommend`, then admit → pin
      → answer → unpin → release in :meth:`_admitted_recommend`, with
      the epoch-keyed query memo.

    A subclass supplies ``_omega``, ``epoch_key`` (the current epoch
    identity), ``num_shards`` / ``video_ids`` / ``has_video`` (what it
    serves), ``_key_of(pinned)``, ``_pin`` / ``_unpin`` (one epoch or
    the epoch vector), ``_answer`` (memo plus scan, or memo plus
    scatter/merge), ``_stamp`` (the attributes a served result carries,
    ``epoch_key`` among them) and ``_follower_copy``.  Per-request
    metrics are named ``<METRIC_PREFIX>_*``.
    """

    #: Prefix of the per-request metric names (``_queries_total``,
    #: ``_latency_seconds``, ``_memo_hit_total``, ...).
    METRIC_PREFIX = "repro_serving"

    def __init__(self, master, config: GatewayConfig | None) -> None:
        self._master = master
        self.config = config or GatewayConfig()
        self._defense = self.config.defense or DefenseConfig()
        self._write_lock = threading.RLock()
        # Batched-mutation bookkeeping: inside a mutations() block the
        # per-mutation publish is deferred to the block's exit.  Both
        # fields are only touched under the writer lock.
        self._mutation_depth = 0
        self._publish_pending = False
        self._gate = _AdmissionGate(
            self.config.max_concurrency,
            self.config.queue_depth,
            self.config.queue_timeout,
            hot_priority=self._defense.hot_priority,
        )
        self._memo = _QueryMemo(self.config.memo_capacity)
        self._flights = SingleFlight() if self._defense.coalesce else None
        self._governor = (
            PublishGovernor(
                self._defense.min_publish_interval,
                self._defense.max_deferred_mutations,
            )
            if self._defense.min_publish_interval > 0
            else None
        )
        self._publish_timer: threading.Timer | None = None
        self._deferred_publish = False

    # ------------------------------------------------------------------
    # Publish control (writer side)
    # ------------------------------------------------------------------
    def _maybe_publish(self) -> None:
        """Publish now, or mark pending inside a :meth:`mutations` block.

        With a :class:`~repro.defense.backpressure.PublishGovernor` armed
        (``defense.min_publish_interval > 0``), a mutation landing inside
        the minimum interval applies to the master immediately but defers
        the publication; a one-shot timer flushes it when the interval
        elapses, so a retire storm builds a bounded number of epochs and
        the memo/response caches stop thrashing per mutation.
        """
        if self._mutation_depth:
            self._publish_pending = True
            return
        if self._governor is not None and self._governor.should_defer():
            self._deferred_publish = True
            get_metrics().inc("repro_defense_deferred_publishes_total")
            self._arm_publish_timer()
            return
        self._publish_governed()

    def _publish_governed(self) -> None:
        """Publish now; folds any deferred publication into this one."""
        self._deferred_publish = False
        self._publish_now()
        if self._governor is not None:
            self._governor.published()

    def _arm_publish_timer(self) -> None:
        """Arm the deferred-publication flush (under the writer lock)."""
        if self._publish_timer is not None:
            return
        delay = max(self._governor.delay_remaining(), 1e-4)
        timer = threading.Timer(delay, self._flush_deferred_publish)
        timer.daemon = True
        self._publish_timer = timer
        timer.start()

    def _flush_deferred_publish(self) -> None:
        with self._write_lock:
            self._publish_timer = None
            if not self._deferred_publish or self._mutation_depth:
                return
            if self._governor.delay_remaining() > 0:
                # A direct publication restarted the interval after this
                # timer was armed; re-arm for the remainder.
                self._arm_publish_timer()
                return
            self._publish_governed()

    @contextmanager
    def mutations(self):
        """Batch several mutations into **one** epoch publication.

        ``with gateway.mutations(): ...`` holds the writer lock for the
        whole block and defers the per-mutation epoch publish to the
        block's exit, so a bulk ingest of V videos builds one epoch
        instead of V.  Readers keep serving the pre-block epoch until the
        single publish lands — the same visibility model as one large
        mutation.  Blocks nest (the outermost exit publishes); the
        deferred publish also runs when the block exits via an exception,
        since every mutation already applied to the master.
        """
        with self._write_lock:
            self._mutation_depth += 1
            try:
                yield self
            finally:
                self._mutation_depth -= 1
                if self._mutation_depth == 0 and self._publish_pending:
                    self._publish_pending = False
                    self._maybe_publish()

    def close(self) -> None:
        """Release serving resources (a no-op unless a subclass holds any)."""

    # ------------------------------------------------------------------
    # Mutations (serialized; each publishes a fresh epoch)
    # ------------------------------------------------------------------
    def ingest_video(self, clip_or_record, owner=None, users=()) -> str:
        """Serialized ``ingest_video`` on the master + publish."""
        with self._write_lock:
            video_id = self._master.ingest_video(clip_or_record, owner, users)
            self._maybe_publish()
            return video_id

    def retire_video(self, video_id: str) -> None:
        """Serialized ``retire_video`` on the master + publish."""
        with self._write_lock:
            self._master.retire_video(video_id)
            self._maybe_publish()

    def apply_comments(self, comments, incremental: bool = False):
        """Serialized ``apply_comments`` on the master + publish."""
        with self._write_lock:
            stats = self._master.apply_comments(comments, incremental=incremental)
            self._maybe_publish()
            return stats

    def remove_comments(self, comments) -> int:
        """Serialized spam revocation (un-apply memberships) + publish."""
        with self._write_lock:
            removed = self._master.remove_comments(comments)
            self._maybe_publish()
            return removed

    def advance_watermark(self, month: int) -> int:
        """Serialized watermark advance + publish."""
        with self._write_lock:
            month = self._master.advance_watermark(month)
            self._maybe_publish()
            return month

    # ------------------------------------------------------------------
    # Queries (reader side)
    # ------------------------------------------------------------------
    def recommend(
        self,
        query_id: str,
        top_k: int = 10,
        deadline: float | None = None,
        trace=None,
    ) -> Recommendations:
        """Top-K recommendations from an immutable epoch view.

        *deadline* is in **seconds from now** (defaults to the config's
        ``default_deadline``); it bounds admission waiting *and* the
        candidate scan.  The result is a
        :class:`~repro.core.recommender.Recommendations` annotated with
        ``epoch_key`` (the pinned view's :attr:`epoch_key`), the pinned
        view itself and ``omega_served`` (0.0 when the breaker dropped
        the social term).  Raises :class:`~repro.errors.OverloadedError`
        when admission sheds the request; everything else degrades
        instead of failing.
        """
        metrics = get_metrics()
        if deadline is None:
            deadline = self.config.default_deadline
        deadline_at = None if deadline is None else time.monotonic() + float(deadline)
        # Everything besides the epoch that determines the ranking.  The
        # deadline *class* (not the absolute monotonic instant) keys it,
        # so repeated queries with the same budget share a memo entry.
        request = (query_id, int(top_k), "none" if deadline is None else f"{deadline:g}")
        defense = self._defense
        hot = False
        flight_key = None
        if defense.coalesce or defense.hot_priority:
            # Advisory pre-admission peek at the *current* epoch (no
            # pin): the serving path recomputes everything against the
            # epoch it actually pins, so a racing publish only costs the
            # heuristic, never correctness.
            key = (self.epoch_key, *request)
            hot = defense.hot_priority and self._memo.contains(key)
            if defense.coalesce:
                flight_key = key
        if flight_key is None:
            return self._admitted_recommend(request, deadline_at, trace, metrics, hot)
        leader, flight = self._flights.begin(flight_key)
        if leader:
            metrics.inc("repro_defense_coalesce_leaders_total")
            try:
                result = self._admitted_recommend(
                    request, deadline_at, trace, metrics, hot
                )
            except BaseException as error:
                self._flights.finish(flight_key, flight, error=error)
                raise
            self._flights.finish(flight_key, flight, result=result)
            return result
        # Followers park *before* admission: the whole duplicate crowd
        # consumes one queue slot (the leader's) and one scan.  A leader
        # error (e.g. OverloadedError) propagates to the flock — one shed
        # sheds the crowd.
        budget = defense.coalesce_wait
        if deadline_at is not None:
            budget = min(budget, max(0.001, deadline_at - time.monotonic()))
        outcome = self._flights.wait(flight, budget)
        if outcome is TIMEOUT:
            # Leader outlived this follower's budget: fall back to the
            # full serving path (correctness never waits).
            metrics.inc("repro_defense_coalesce_timeouts_total")
            return self._admitted_recommend(request, deadline_at, trace, metrics, hot)
        metrics.inc("repro_defense_coalesced_followers_total")
        result = self._follower_copy(outcome)
        result.coalesced = True
        metrics.inc(f"{self.METRIC_PREFIX}_queries_total")
        return result

    def _admitted_recommend(
        self, request, deadline_at, trace, metrics, hot=False
    ) -> Recommendations:
        """Admit → pin → answer → unpin → release (see :meth:`recommend`)."""
        query_id, top_k, _ = request
        prefix = self.METRIC_PREFIX
        self._gate.admit(deadline_at, metrics, hot=hot)
        admitted_at = time.monotonic()
        try:
            with metrics.time(f"{prefix}_latency_seconds"):
                pinned = self._pin(metrics)
                try:
                    result = self._answer(
                        pinned,
                        (self._key_of(pinned), *request),
                        query_id,
                        top_k,
                        deadline_at,
                        trace,
                        metrics,
                    )
                finally:
                    self._unpin(pinned, metrics)
                metrics.inc(f"{prefix}_queries_total")
                if result.degraded:
                    metrics.inc(f"{prefix}_degraded_total")
                if result.partial:
                    metrics.inc(f"{prefix}_deadline_miss_total")
                return result
        finally:
            # The fold into the retry_after_ms EWMA deliberately includes
            # memo hits — the hint models the *observed* service rate.
            self._gate.release(metrics, time.monotonic() - admitted_at)

    def _recall(self, key, pinned, metrics):
        """The memoized answer for *key* stamped onto *pinned*, or ``None``.

        A ``None`` key is a counted miss without a lookup.
        """
        cached = None if key is None else self._memo.get(key)
        if cached is None:
            metrics.inc(f"{self.METRIC_PREFIX}_memo_miss_total")
            return None
        metrics.inc(f"{self.METRIC_PREFIX}_memo_hit_total")
        return self._stamp(cached.copy(), pinned, self._omega)

    def _remember(self, key, result, metrics) -> None:
        # Only clean full-scan rankings are memoized: a partial or
        # degraded answer must never shadow the real one on the next
        # identical query.
        if not result.partial and not result.degraded:
            self._memo.put(key, result.copy(), metrics)


class ServingGateway(GatewayCore):
    """Thread-safe serving facade over a live community index.

    Parameters
    ----------
    index:
        The write master (a :class:`~repro.core.pipeline.CommunityIndex`
        or live subclass).  The gateway owns its mutation path — apply
        writes through the gateway, never directly, while serving.
    omega / social_mode / content_measure / engine:
        Recommender configuration of the served rankings (defaults follow
        the index config, ``sar-h`` social mode).
    config:
        The :class:`GatewayConfig` serving knobs.
    faults:
        Optional :class:`~repro.testing.faults.FaultPlan` threaded into
        the registered serving points (chaos tests arm failures here).
    breaker_clock:
        Clock of the circuit breaker only (injectable for deterministic
        state-machine tests); deadlines and admission always use
        ``time.monotonic`` because the scan's chunked cutoff does.
    seed:
        Seed of the retry-jitter RNG.
    """

    def __init__(
        self,
        index,
        omega: float | None = None,
        social_mode: str = "sar-h",
        content_measure: str = "kj",
        engine: str | None = None,
        config: GatewayConfig | None = None,
        faults=None,
        breaker_clock=time.monotonic,
        seed: int = 0,
    ) -> None:
        super().__init__(index, config)
        self._omega = index.config.omega if omega is None else float(omega)
        self._social_mode = social_mode
        self._content_measure = content_measure
        self._engine = engine
        # fire() logs every hit into the plan; skip it entirely when no
        # plan was supplied so the shared NO_FAULTS log can't grow
        # unbounded under production query traffic.
        self._fire_faults = faults is not None
        self._faults = faults if faults is not None else NO_FAULTS
        self._epochs = EpochManager()
        self._breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown=self.config.breaker_cooldown,
            half_open_probes=self.config.breaker_probes,
            half_open_successes=self.config.breaker_successes,
            clock=breaker_clock,
            on_transition=self._on_breaker_transition,
        )
        self._rng = random.Random(seed)
        self._rng_lock = threading.Lock()
        # The initial epoch is published fault-free: a plan arming the
        # publish point targets *mutations*, not construction.
        self._publish_now(fire=False)
        if self._governor is not None:
            self._governor.published()

    # ------------------------------------------------------------------
    # Epoch publication (writer side)
    # ------------------------------------------------------------------
    def _build_recommenders(self, epoch: CommunityEpoch) -> None:
        if self._content_measure == "kj" and epoch.video_ids:
            # Warm the bank's float32 scoring pack before the epoch is
            # visible: "pack once per epoch" — every reader then shares
            # the immutable pack instead of racing a lazy build.
            epoch.signature_bank().fast_pack()
        epoch.serving_recommenders = {
            "full": epoch.recommender(
                omega=self._omega,
                social_mode=self._social_mode,
                content_measure=self._content_measure,
                engine=self._engine,
            ),
            "content": epoch.recommender(
                omega=0.0,
                social_mode=self._social_mode,
                content_measure=self._content_measure,
                engine=self._engine,
            ),
        }

    def _publish_now(self, fire: bool = True) -> CommunityEpoch:
        if fire and self._fire_faults:
            self._faults.fire(SERVE_PUBLISH_POINT)
        # The recommenders are attached in publish()'s prepare hook, i.e.
        # before the epoch becomes visible — a reader must never pin an
        # epoch that can't serve yet.
        epoch = self._epochs.publish(self._master, prepare=self._build_recommenders)
        metrics = get_metrics()
        # Invalidate *after* the pointer swap: queries racing the publish
        # either memoized against the previous epoch (dropped here) or pin
        # the new epoch (whose results are valid to keep).
        self._memo.invalidate(metrics)
        metrics.set_gauge("repro_serving_epoch_id", epoch.epoch_id)
        metrics.set_gauge("repro_serving_epochs_live", self._epochs.live_count)
        metrics.set_gauge("repro_serving_epochs_published", self._epochs.published_total)
        metrics.set_gauge("repro_serving_epoch_videos", len(epoch.video_ids))
        return epoch

    @property
    def current_epoch(self) -> CommunityEpoch:
        """The epoch new queries pin."""
        epoch = self._epochs.current
        assert epoch is not None  # published in __init__
        return epoch

    @property
    def epoch_key(self) -> int:
        """Id of the current epoch — the ``epoch_key`` results carry."""
        return self.current_epoch.epoch_id

    #: One index is served as one shard.
    num_shards = 1

    @property
    def video_ids(self) -> list[str]:
        """The current epoch's video ids, sorted."""
        return self.current_epoch.video_ids

    def has_video(self, video_id: str) -> bool:
        """Whether the current epoch serves *video_id*."""
        return video_id in self.current_epoch.series

    @property
    def epochs(self) -> EpochManager:
        """The epoch lifecycle manager (refcounts, retire accounting)."""
        return self._epochs

    @property
    def breaker(self) -> CircuitBreaker:
        """The social-path circuit breaker."""
        return self._breaker

    # ------------------------------------------------------------------
    # Social path: breaker + retry/backoff
    # ------------------------------------------------------------------
    def _on_breaker_transition(self, old: str, new: str) -> None:
        metrics = get_metrics()
        metrics.inc("repro_serving_breaker_transitions_total", to=new)
        metrics.set_gauge("repro_serving_breaker_state", STATE_CODES[new])

    def _jitter(self) -> float:
        with self._rng_lock:
            return self._rng.random()

    def _social_path(self, epoch, deadline_at: float | None, metrics) -> str | None:
        """Attempt the social dependency of a query on *epoch*; ``None``
        when the fused ranking may be served (or has no social term),
        else the degradation reason the ranking must carry."""
        if self._omega <= 0.0 or not epoch.social_store.available:
            return None
        if not self._breaker.allow():
            metrics.inc("repro_serving_breaker_short_circuit_total")
            return (
                "social path circuit breaker open; serving content-only ranking"
            )
        cfg = self.config
        attempt = 0
        while True:
            try:
                if self._fire_faults:
                    self._faults.fire(SERVE_SOCIAL_POINT)
            except InjectedFaultError as error:
                metrics.inc("repro_serving_social_failures_total", kind="transient")
                attempt += 1
                if attempt <= cfg.retry_attempts:
                    delay = cfg.retry_backoff * (2 ** (attempt - 1))
                    delay *= 1.0 + cfg.retry_jitter * self._jitter()
                    if deadline_at is None or time.monotonic() + delay < deadline_at:
                        metrics.inc("repro_serving_retries_total")
                        time.sleep(delay)
                        continue
                self._breaker.record_failure()
                return f"social path failing ({error}); serving content-only ranking"
            except InjectedCrashError as error:
                # Non-transient fault class: no retry, straight to the
                # breaker ledger.
                metrics.inc("repro_serving_social_failures_total", kind="fatal")
                self._breaker.record_failure()
                return f"social path failed ({error}); serving content-only ranking"
            else:
                self._breaker.record_success()
                return None

    def _score(
        self, epoch, reason, query_id, top_k, deadline_at, trace, **guest
    ) -> Recommendations:
        """Rank *query_id* on *epoch*, setting ``omega_served``.

        A ``None`` *reason* (see :meth:`_social_path`) serves the fused
        recommender; otherwise the content-only one, flagged ``degraded``
        with *reason* appended.  *guest* is the sharded scatter's query
        state, passed through to the recommender.
        """
        recommender: FusionRecommender = epoch.serving_recommenders[
            "full" if reason is None else "content"
        ]
        result = recommender.recommend(
            query_id, top_k, trace=trace, deadline=deadline_at, **guest
        )
        if reason is None:
            result.omega_served = self._omega
            return result
        result = Recommendations(
            result,
            degraded=True,
            partial=result.partial,
            reasons=(*result.reasons, reason),
            scored=result.scored,
            total=result.total,
            scores=getattr(result, "scores", None),
        )
        result.omega_served = 0.0
        return result

    # ------------------------------------------------------------------
    # Request-path hooks (see GatewayCore)
    # ------------------------------------------------------------------
    @staticmethod
    def _key_of(epoch: CommunityEpoch) -> int:
        return epoch.epoch_id

    def _pin(self, metrics) -> CommunityEpoch:
        epoch = self._epochs.pin()
        metrics.set_gauge("repro_serving_epoch_age_seconds", self._epochs.current_age())
        return epoch

    def _unpin(self, epoch: CommunityEpoch, metrics) -> None:
        self._epochs.unpin(epoch)
        metrics.set_gauge("repro_serving_epochs_live", self._epochs.live_count)

    def _answer(
        self, epoch, key, query_id, top_k, deadline_at, trace, metrics
    ) -> Recommendations:
        # The breaker is consulted before the memo: a degraded query
        # is served the content-only ranking, never a memoized fused one.
        reason = self._social_path(epoch, deadline_at, metrics)
        cached = self._recall(key if reason is None else None, epoch, metrics)
        if cached is not None:
            return cached
        result = self._score(epoch, reason, query_id, top_k, deadline_at, trace)
        self._remember(key, result, metrics)
        return self._stamp(result, epoch, result.omega_served)

    @staticmethod
    def _stamp(result, epoch: CommunityEpoch, omega_served: float):
        result.epoch_key = result.epoch_id = epoch.epoch_id
        result.epoch = epoch
        result.omega_served = omega_served
        return result

    def _follower_copy(self, outcome) -> Recommendations:
        return self._stamp(outcome.copy(), outcome.epoch, outcome.omega_served)
