"""Scatter-gather serving over a sharded community index.

:class:`ShardedGateway` fronts a :class:`~repro.sharding.shard.ShardedIndex`
with the same contract as the single-index
:class:`~repro.serving.gateway.ServingGateway` — and the same *answers*:
the merged top-K is **bit-identical** to what one gateway over the
unsharded index serves.  Three mechanisms carry that guarantee:

* **pinned bank layout** — before every publication the coordinator
  reduces the shards' natural pack layouts to the global one and pins it
  (:meth:`~repro.sharding.shard.ShardedIndex.pin_layout`), so the
  float32 kernel's width- and offset-dependent results match the oracle
  per candidate pair;
* **guest queries** — the query's signature series (and, for the SAR
  modes, its frozen SAR vector) is read from the owner shard's epoch and
  passed to every shard, whose recommender packs it against the pinned
  offset — producing the very keys the oracle derives from its own rows;
* **deterministic merge** — shards partition the candidates, so each
  global top-K candidate appears in its shard's top-K; merging by
  ``(-score, id)`` reproduces the oracle's fused ranking and tie-break
  exactly.

The deadline-free scatter additionally **chains the pruning threshold**
across shards: each shard's bound-ordered scan is seeded with the
running merged k-th best fused score, so a candidate whose upper bound
falls strictly below a score already attained elsewhere is never
scored at all.  A pruned candidate satisfies ``score <= bound <
threshold <= final merged k-th``, so it could not have entered the
merged top-K — the slices may come back trimmed, but the merge stays
bit-identical to the oracle (boundary ties are kept and scored, just
like the in-scan threshold).  The guest query is also packed once
against the pinned layout and shared, since pack output depends only
on the query and the pinned offset.

Each shard keeps its own epoch lifecycle, circuit breaker and fault
plan, so one failing shard degrades *its slice* of the ranking — the
merged result comes back flagged ``degraded``/``partial`` with a
per-shard reason instead of failing the query.  Cross-shard atomicity
comes from the **epoch vector**: after publishing every shard the
coordinator pins the fresh epochs, swaps the vector, and unpins the old
ones; a query pins the whole recorded vector (retrying if a swap won it)
and therefore never mixes shard states from different publications.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np

from repro.core.recommender import Recommendations
from repro.measures.content import _segment_integrals
from repro.obs import get_metrics
from repro.serving.epoch import CommunityEpoch
from repro.serving.gateway import GatewayConfig, GatewayCore, ServingGateway
from repro.sharding.shard import ShardedIndex

__all__ = ["ShardServingGateway", "ShardedGateway", "serving_gateway"]


class ShardServingGateway(ServingGateway):
    """One shard's serving gateway: epoch lifecycle, breaker, fault plan.

    Inherits the full single-index behaviour (a shard can be queried
    directly) and adds :meth:`scatter_recommend` — the coordinator-facing
    entry that skips admission, memoization and pinning (all global at
    the sharded level) and accepts the owner shard's guest query state.
    """

    def __init__(self, shard, shard_id: int, **kwargs) -> None:
        self.shard_id = int(shard_id)
        super().__init__(shard, **kwargs)

    def _publish_now(self, fire: bool = True) -> CommunityEpoch:
        epoch = super()._publish_now(fire=fire)
        metrics = get_metrics()
        label = str(self.shard_id)
        metrics.set_gauge("repro_shard_epoch_id", epoch.epoch_id, shard=label)
        metrics.set_gauge(
            "repro_shard_videos", len(epoch.video_ids), shard=label
        )
        return epoch

    def scatter_recommend(
        self,
        epoch: CommunityEpoch,
        query_id: str,
        top_k: int,
        deadline_at: float | None,
        metrics,
        trace=None,
        **guest,
    ) -> Recommendations:
        """This shard's top-K slice of a scattered query.

        *epoch* is the coordinator-pinned epoch from the scatter's
        vector (never re-pinned here); *deadline_at* is the request's
        absolute ``time.monotonic`` deadline shared by every shard.
        *guest* is the recommender's guest query state: the
        ``query_series`` / ``query_vector`` come from the owner shard's
        epoch (on the owner itself the indexed fast path wins, so
        passing them everywhere is uniform and harmless);
        ``query_pack`` is the query packed once against the pinned
        layout (shared by every shard of the scatter); and
        ``initial_threshold`` seeds the pruned scan with the
        coordinator's running merged k-th best score — this shard's
        slice may come back trimmed to the candidates that could still
        enter the merged top-K.
        """
        candidates = len(epoch.series) - (1 if query_id in epoch.series else 0)
        if candidates <= 0:
            result = Recommendations(scores=[])
            result.omega_served = self._omega
        else:
            reason = self._social_path(epoch, deadline_at, metrics)
            result = self._score(
                epoch, reason, query_id, top_k, deadline_at, trace, **guest
            )
        result.shard_id = self.shard_id
        return self._stamp(result, epoch, result.omega_served)


class ShardedGateway(GatewayCore):
    """Scatter-gather serving facade over a :class:`ShardedIndex`.

    Parameters mirror :class:`~repro.serving.gateway.ServingGateway`;
    *faults* may be one :class:`~repro.testing.faults.FaultPlan` shared
    by every shard or a per-shard list (``None`` entries allowed), which
    is how the chaos suite aims a fault burst at a single shard.

    Mutations go through the :class:`~repro.serving.gateway.GatewayCore`
    facade into the :class:`ShardedIndex` (owner routing + social
    replication); each publication re-pins the global bank layout,
    republishes **every** shard's epoch and swaps the epoch vector — one
    cross-shard-consistent view per mutation (or per :meth:`mutations`
    block).  Queries admit through one global gate, pin the vector,
    scatter, and merge deterministically.
    """

    METRIC_PREFIX = "repro_sharded"

    def __init__(
        self,
        sharded: ShardedIndex,
        omega: float | None = None,
        social_mode: str = "sar-h",
        content_measure: str = "kj",
        engine: str | None = None,
        config: GatewayConfig | None = None,
        faults=None,
        breaker_clock=time.monotonic,
        seed: int = 0,
    ) -> None:
        super().__init__(sharded, config)
        self._social_mode = social_mode
        plans = self._per_shard_plans(faults, sharded.num_shards)
        # Pin before the per-shard gateways exist: their constructors
        # publish epoch 0, which must already freeze the global layout.
        sharded.pin_layout()
        self._gateways = [
            ShardServingGateway(
                shard,
                shard.shard_id,
                omega=omega,
                social_mode=social_mode,
                content_measure=content_measure,
                engine=engine,
                config=self.config,
                faults=plans[shard.shard_id],
                breaker_clock=breaker_clock,
                seed=seed + shard.shard_id,
            )
            for shard in sharded.shards
        ]
        self._omega = self._gateways[0]._omega
        self._vector_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=sharded.num_shards, thread_name_prefix="shard-scatter"
        )
        # The vector itself holds one reader pin per epoch, so an epoch
        # referenced by the vector can never retire out from under a
        # query that read the vector but has not pinned yet.
        vector = tuple(gw.current_epoch for gw in self._gateways)
        for gw, epoch in zip(self._gateways, vector):
            pinned = gw.epochs.pin_specific(epoch)
            assert pinned  # the constructor's epoch 0 is current
        self._epoch_vector = vector
        if self._governor is not None:
            self._governor.published()

    @staticmethod
    def _per_shard_plans(faults, num_shards: int) -> list:
        if faults is None:
            return [None] * num_shards
        if isinstance(faults, (list, tuple)):
            plans = list(faults)
            if len(plans) != num_shards:
                raise ValueError(
                    f"need {num_shards} per-shard fault plans, got {len(plans)}"
                )
            return plans
        return [faults] * num_shards

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self._gateways)

    @property
    def gateways(self) -> list[ShardServingGateway]:
        """The per-shard gateways (breaker/epoch introspection)."""
        return list(self._gateways)

    @property
    def current_epochs(self) -> tuple[CommunityEpoch, ...]:
        """The epoch vector new queries pin."""
        with self._vector_lock:
            return self._epoch_vector

    @property
    def epoch_key(self) -> tuple[int, ...]:
        """Epoch ids of the current vector — the ``epoch_key`` results carry."""
        return self._key_of(self.current_epochs)

    @property
    def video_ids(self) -> list[str]:
        """The current vector's video ids, sorted (shards partition them)."""
        return list(heapq.merge(*(epoch.video_ids for epoch in self.current_epochs)))

    def has_video(self, video_id: str) -> bool:
        """Whether some shard's current epoch serves *video_id*."""
        return any(video_id in epoch.series for epoch in self.current_epochs)

    def close(self) -> None:
        """Shut the scatter thread pool down (idempotent)."""
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Publication (swaps a fresh epoch vector)
    # ------------------------------------------------------------------
    def _publish_now(self) -> None:
        self._master.pin_layout()
        fresh = []
        for gw in self._gateways:
            with gw._write_lock:
                fresh.append(gw._publish_now())
        for gw, epoch in zip(self._gateways, fresh):
            pinned = gw.epochs.pin_specific(epoch)
            assert pinned  # just published, still current
        with self._vector_lock:
            stale = self._epoch_vector
            self._epoch_vector = tuple(fresh)
        for gw, epoch in zip(self._gateways, stale):
            gw.epochs.unpin(epoch)
        metrics = get_metrics()
        self._memo.invalidate(metrics)
        metrics.inc("repro_sharded_publish_total")

    # ------------------------------------------------------------------
    # Request-path hooks (see GatewayCore): pin the vector, scatter, merge
    # ------------------------------------------------------------------
    @staticmethod
    def _key_of(vector) -> tuple[int, ...]:
        return tuple(epoch.epoch_id for epoch in vector)

    def _pin(self, metrics) -> tuple[CommunityEpoch, ...]:
        """Pin every epoch of one consistent vector (retrying swaps)."""
        while True:
            with self._vector_lock:
                vector = self._epoch_vector
            pinned: list[CommunityEpoch] = []
            for gw, epoch in zip(self._gateways, vector):
                if not gw.epochs.pin_specific(epoch):
                    break
                pinned.append(epoch)
            if len(pinned) == len(vector):
                return vector
            for gw, epoch in zip(self._gateways, pinned):
                gw.epochs.unpin(epoch)
            # A republish swapped the vector mid-pin; re-read and retry.
            time.sleep(0.0005)

    def _unpin(self, vector: tuple[CommunityEpoch, ...], metrics) -> None:
        for gw, epoch in zip(self._gateways, vector):
            gw.epochs.unpin(epoch)

    def _stamp(self, result, vector, omega_served: float, shard_results=None):
        result.epoch_key = result.epoch_ids = self._key_of(vector)
        result.epochs = vector
        result.omega_served = omega_served
        result.shard_results = shard_results
        return result

    def _follower_copy(self, outcome) -> Recommendations:
        return self._stamp(outcome.copy(), outcome.epochs, outcome.omega_served)

    def _answer(
        self, vector, key, query_id, top_k, deadline_at, trace, metrics
    ) -> Recommendations:
        """The merged top-K over every shard's slice of the candidates.

        Bit-identical to the single-index oracle when every shard
        answers cleanly.  A shard that misses the shared deadline marks
        the result ``partial``; a shard that fails marks it
        ``degraded``; both attach a per-shard reason and the remaining
        shards' slices still merge.  The per-shard raw results ride
        along as ``result.shard_results`` (``None`` for a shard that
        produced nothing, and for a memo hit), which is what the chaos
        suite replays.
        """
        cached = self._recall(key, vector, metrics)
        if cached is not None:
            return cached
        result, shard_results = self._scatter(
            vector, query_id, top_k, deadline_at, trace, metrics
        )
        self._remember(key, result, metrics)
        omega_served = (
            self._omega
            if not result.degraded
            else min(
                (r.omega_served for r in shard_results if r is not None),
                default=0.0,
            )
        )
        return self._stamp(result, vector, omega_served, tuple(shard_results))

    def _query_state(self, query_id: str, vector):
        """``(owner, series, sar_vector)`` of *query_id* in *vector*."""
        for owner, epoch in enumerate(vector):
            if query_id in epoch.series:
                break
        else:
            raise KeyError(f"unknown video {query_id!r}")
        series = epoch.series[query_id]
        vector_row = None
        if (
            self._omega > 0.0
            and epoch.social_store.available
            and epoch.video_ids
        ):
            if self._social_mode in ("sar", "sar-h"):
                row = int(np.searchsorted(epoch._ids_array, query_id))
                vector_row = epoch.sar_matrix(self._social_mode)[row]
            elif self._social_mode == "sketch":
                # Sketch guests ship ``(sketch row, set size)`` — the
                # non-owner shards' frozen banks only cover their own
                # videos, exactly like the SAR matrices.
                row = int(np.searchsorted(epoch._ids_array, query_id))
                matrix, sizes = epoch.sketch_matrix()
                vector_row = (matrix[row], int(sizes[row]))
        return owner, series, vector_row

    def _scatter(self, vector, query_id, top_k, deadline_at, trace, metrics):
        """``(merged result, per-shard slices)`` of one scattered query."""
        owner, query_series, query_vector = self._query_state(query_id, vector)

        def scatter_one(index: int, query_pack=None, initial_threshold=None):
            gw, epoch = self._gateways[index], vector[index]
            return gw.scatter_recommend(
                epoch,
                query_id,
                top_k,
                deadline_at,
                metrics,
                query_series=query_series,
                query_vector=query_vector,
                query_pack=query_pack,
                initial_threshold=initial_threshold,
                trace=trace,
            )

        shard_results: list = [None] * len(vector)
        shard_reasons: list[str] = []
        missed: list[int] = []
        failed: list[int] = []
        if deadline_at is None:
            # No deadline: scatter in-thread — the perf path pays no
            # handoff, and a shard exception is contained per shard.
            # Two cross-shard amortizations keep the scatter near the
            # single-index cost: the query is packed ONCE against the
            # pinned layout (pack output depends only on the query and
            # the pinned offset, so every shard would derive the same
            # triple), and each shard's pruned scan is seeded with the
            # running merged k-th best score, so later shards skip
            # candidates that can no longer enter the merged top-K.
            query_pack = None
            if len(vector) > 1:
                try:
                    pack = vector[owner].signature_bank().fast_pack()
                    keys, values, weights = pack.pack_query(query_series)
                    # The pinned grid is shared by every shard, so the
                    # guest's bound integrals are computed once too.
                    integrals = _segment_integrals(
                        values, weights, grid=pack.grid
                    )[1]
                    query_pack = (keys, values, weights, integrals)
                except Exception:  # noqa: BLE001 - shards repack solo
                    query_pack = None
            running: list[tuple[float, str]] = []
            threshold = None
            # Owner shard first: its indexed fast path is the cheapest
            # full (unseeded) scan, and the threshold it establishes
            # seeds every guest shard.  The merge is order-independent
            # — trimming only ever drops candidates provably outside
            # the merged top-K — so this is purely a perf choice.
            scan_order = [owner] + [
                index for index in range(len(vector)) if index != owner
            ]
            for index in scan_order:
                try:
                    shard_results[index] = scatter_one(
                        index,
                        query_pack=query_pack,
                        initial_threshold=threshold,
                    )
                except Exception as error:  # noqa: BLE001 - degrade, never fail
                    failed.append(index)
                    shard_reasons.append(f"shard {index} failed ({error})")
                    metrics.inc(
                        "repro_sharded_shard_failures_total", shard=str(index)
                    )
                else:
                    slice_result = shard_results[index]
                    scores = getattr(slice_result, "scores", None) or []
                    if scores:
                        running.extend(zip(scores, slice_result))
                        running.sort(key=lambda entry: (-entry[0], entry[1]))
                        del running[top_k:]
                        if len(running) >= top_k:
                            threshold = running[-1][0]
        else:
            futures = {
                index: self._pool.submit(scatter_one, index)
                for index in range(len(vector))
            }
            for index, future in futures.items():
                remaining = deadline_at - time.monotonic()
                try:
                    shard_results[index] = future.result(
                        timeout=max(0.0, remaining)
                    )
                except FutureTimeoutError:
                    missed.append(index)
                    shard_reasons.append(
                        f"shard {index} missed the deadline; merged without it"
                    )
                    metrics.inc(
                        "repro_sharded_shard_deadline_total", shard=str(index)
                    )
                except Exception as error:  # noqa: BLE001 - degrade, never fail
                    failed.append(index)
                    shard_reasons.append(f"shard {index} failed ({error})")
                    metrics.inc(
                        "repro_sharded_shard_failures_total", shard=str(index)
                    )

        result = self._merge(
            vector, owner, shard_results, shard_reasons, missed, failed, top_k
        )
        return result, shard_results

    def _merge(
        self, vector, owner, shard_results, shard_reasons, missed, failed, top_k
    ) -> Recommendations:
        """Gather per-shard slices into the oracle's fused ranking.

        Shards partition the candidate set, so every global top-K
        candidate ranks inside its own shard's top-K; concatenating the
        slices and sorting by ``(-score, id)`` therefore reproduces the
        oracle's score order *and* its ascending-id tie-break exactly.
        Threshold-chained slices may be trimmed below K entries, but
        only of candidates provably outside the merged top-K, so the
        guarantee is unchanged.
        """
        entries: list[tuple[float, str]] = []
        reasons: list[str] = list(shard_reasons)
        degraded = bool(failed)
        partial = bool(missed)
        scored = 0
        total = 0
        for index, result in enumerate(shard_results):
            if result is None:
                # The missing shard's candidates were never scored.
                epoch = vector[index]
                total += len(epoch.series) - (1 if index == owner else 0)
                continue
            degraded |= result.degraded
            partial |= result.partial
            reasons.extend(
                f"shard {index}: {reason}" for reason in result.reasons
            )
            scored += result.scored
            total += result.total
            scores = result.scores if result.scores is not None else []
            entries.extend(zip(scores, result))
        entries.sort(key=lambda entry: (-entry[0], entry[1]))
        top = entries[:top_k]
        return Recommendations(
            [video_id for _, video_id in top],
            degraded=degraded,
            partial=partial,
            reasons=tuple(reasons),
            scored=scored,
            total=total,
            scores=[score for score, _ in top],
        )


def serving_gateway(master, **kwargs) -> GatewayCore:
    """The gateway over *master*: a :class:`ShardedGateway` for a
    :class:`ShardedIndex`, else a :class:`ServingGateway`."""
    if isinstance(master, ShardedIndex):
        return ShardedGateway(master, **kwargs)
    return ServingGateway(master, **kwargs)
