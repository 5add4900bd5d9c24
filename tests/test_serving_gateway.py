"""Serving gateway: epoch isolation, deadlines, shedding, circuit breaker.

Single-threaded behavioural tests of every gateway mechanism (the
multi-threaded torture lives in ``test_chaos_soak.py``): copy-on-write
epoch publication and the pin/retire lifecycle, request deadlines cutting
the chunked scan into partial results, typed load shedding, the breaker's
trip -> open -> half-open -> close cycle under an injected clock, and
retry/backoff of transient social faults.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import FusionRecommender, LiveCommunityIndex
from repro.errors import OverloadedError, ServingError
from repro.serving import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    GatewayConfig,
    ServingGateway,
)
from repro.serving.gateway import SERVE_PUBLISH_POINT, SERVE_SOCIAL_POINT
from repro.testing.faults import FaultPlan, InjectedFaultError


def _leaves(dataset):
    parents = {r.lineage for r in dataset.records.values() if r.lineage}
    return sorted(v for v in dataset.records if v not in parents)


@pytest.fixture(scope="module")
def spare_ids(workload):
    """Two leaf videos held out of the live index (always ingestable)."""
    return _leaves(workload.dataset)[:2]


@pytest.fixture(scope="module")
def live(workload, config, spare_ids):
    """A live index over all but the spare videos.

    46 indexed videos puts every query's candidate count above the
    32-candidate budget chunk, so deadline tests can actually go partial.
    """
    dataset = workload.dataset
    initial = sorted(set(dataset.records) - set(spare_ids))
    live = LiveCommunityIndex(dataset.subset(initial), config)
    live.dataset.comments = list(dataset.comments)
    return live


@pytest.fixture()
def gateway(live):
    return ServingGateway(live)


@pytest.fixture(scope="module")
def query(live):
    return live.video_ids[0]


# ----------------------------------------------------------------------
# Epoch lifecycle
# ----------------------------------------------------------------------
class TestEpochs:
    def test_initial_epoch_serves_master_parity(self, gateway, live, query):
        served = gateway.recommend(query, top_k=8)
        direct = FusionRecommender(live)
        assert list(served) == list(direct.recommend(query, top_k=8))
        assert served.epoch_id == 0
        assert served.omega_served == live.config.omega

    def test_mutation_publishes_new_epoch(self, gateway, live, workload, query, spare_ids):
        spare = spare_ids[0]
        before = gateway.recommend(query, top_k=8)
        gateway.ingest_video(workload.dataset.records[spare])
        try:
            after = gateway.recommend(query, top_k=8)
            assert after.epoch_id == before.epoch_id + 1
            assert spare in gateway.current_epoch.video_ids
            # The old epoch is frozen: the pinned view never saw the ingest.
            assert spare not in before.epoch.video_ids
        finally:
            gateway.retire_video(spare)

    def test_epoch_view_is_frozen_under_comments(self, gateway, live, query):
        before = gateway.recommend(query, top_k=8)
        frozen = before.epoch.descriptor(query)
        gateway.apply_comments([("user_freeze_probe", query)])
        assert before.epoch.descriptor(query) is frozen
        assert "user_freeze_probe" in gateway.current_epoch.descriptor(query).users
        assert "user_freeze_probe" not in frozen.users

    def test_superseded_epoch_retires_when_drained(self, gateway, live, query):
        manager = gateway.epochs
        pinned = manager.pin()
        gateway.advance_watermark(live.up_to_month)  # cheap mutation
        assert manager.live_count == 2  # pinned old + current
        assert not pinned.retired
        manager.unpin(pinned)
        assert pinned.retired
        assert manager.live_count == 1

    def test_unpinned_superseded_epoch_retires_at_publish(self, gateway, live):
        retired_before = gateway.epochs.retired_total
        gateway.advance_watermark(live.up_to_month)
        assert gateway.epochs.retired_total == retired_before + 1
        assert gateway.epochs.live_count == 1

    def test_publish_fault_keeps_serving_old_epoch(self, gateway, live, query):
        plan = FaultPlan()
        gw = ServingGateway(live, faults=plan)
        first = gw.recommend(query, top_k=4)
        plan.arm_failures(SERVE_PUBLISH_POINT, 1)
        with pytest.raises(InjectedFaultError):
            gw.advance_watermark(live.up_to_month)
        # Publication failed but serving continues from the old epoch.
        again = gw.recommend(query, top_k=4)
        assert again.epoch_id == first.epoch_id
        gw.advance_watermark(live.up_to_month)
        assert gw.recommend(query, top_k=4).epoch_id == first.epoch_id + 1


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_tight_deadline_returns_partial_prefix(self, gateway, query):
        result = gateway.recommend(query, top_k=8, deadline=1e-7)
        assert result.partial
        assert result.degraded
        assert 0 < result.scored < result.total
        assert any("deadline" in reason for reason in result.reasons)

    def test_partial_matches_prefix_oracle(self, gateway, query):
        result = gateway.recommend(query, top_k=8, deadline=1e-7)
        epoch = result.epoch
        oracle = epoch.recommender(omega=result.omega_served)
        candidates = [vid for vid in epoch.video_ids if vid != query]
        content, social = oracle._score_arrays(
            query, candidates[: result.scored], result.omega_served
        )
        from repro.core.recommender import rank_components

        components = {
            vid: (float(c), float(s))
            for vid, c, s in zip(candidates, content, social)
        }
        assert list(result) == rank_components(components, result.omega_served, 8)

    def test_default_deadline_from_config(self, live, query):
        gw = ServingGateway(live, config=GatewayConfig(default_deadline=1e-7))
        assert gw.recommend(query, top_k=8).partial

    def test_generous_deadline_scores_everything(self, gateway, query):
        result = gateway.recommend(query, top_k=8, deadline=30.0)
        assert not result.partial
        assert result.scored == result.total


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def _saturate(self, gw, query):
        """Wedge one query inside the gateway; returns (thread, release)."""
        entered, hold = threading.Event(), threading.Event()
        original = gw._social_path

        def wedged(*args, **kwargs):
            entered.set()
            hold.wait(5.0)
            return original(*args, **kwargs)

        gw._social_path = wedged
        thread = threading.Thread(target=lambda: gw.recommend(query))
        thread.start()
        assert entered.wait(5.0)
        return thread, hold

    def test_full_queue_sheds_typed_error(self, live, query):
        gw = ServingGateway(
            live,
            config=GatewayConfig(max_concurrency=1, queue_depth=0, queue_timeout=0.01),
        )
        thread, hold = self._saturate(gw, query)
        try:
            with pytest.raises(OverloadedError):
                gw.recommend(query)
        finally:
            hold.set()
            thread.join()
        # OverloadedError is a ServingError, which the CLI maps to exit 2.
        assert issubclass(OverloadedError, ServingError)

    def test_queued_request_admitted_after_release(self, live, query):
        gw = ServingGateway(
            live,
            config=GatewayConfig(max_concurrency=1, queue_depth=4, queue_timeout=5.0),
        )
        thread, hold = self._saturate(gw, query)
        results = []
        queued = threading.Thread(
            target=lambda: results.append(gw.recommend(query, top_k=4))
        )
        queued.start()
        hold.set()
        thread.join()
        queued.join(5.0)
        assert len(results) == 1 and len(results[0]) == 4

    def test_queue_timeout_sheds(self, live, query):
        gw = ServingGateway(
            live,
            config=GatewayConfig(max_concurrency=1, queue_depth=4, queue_timeout=0.01),
        )
        thread, hold = self._saturate(gw, query)
        try:
            with pytest.raises(OverloadedError):
                gw.recommend(query)
        finally:
            hold.set()
            thread.join()

    def test_shed_carries_retry_after_hint(self, live, query):
        gw = ServingGateway(
            live,
            config=GatewayConfig(max_concurrency=1, queue_depth=0, queue_timeout=0.01),
        )
        thread, hold = self._saturate(gw, query)
        try:
            with pytest.raises(OverloadedError) as info:
                gw.recommend(query)
        finally:
            hold.set()
            thread.join()
        assert info.value.retry_after_ms is not None
        assert info.value.retry_after_ms >= 1.0


class TestRetryAfterHint:
    """Regression pins of the EWMA-derived ``retry_after_ms`` arithmetic."""

    def _gate(self, max_concurrency=2, queue_depth=4):
        from repro.serving.gateway import _AdmissionGate

        return _AdmissionGate(max_concurrency, queue_depth, queue_timeout=1.0)

    def test_default_service_time_before_any_query(self):
        # backlog=1, avg=DEFAULT_SERVICE_TIME=0.05s, concurrency 2:
        # 1000 * 0.05 * 1 / 2 = 25 ms.
        assert self._gate().retry_after_ms() == pytest.approx(25.0)

    def test_ewma_folds_service_times(self):
        gate = self._gate()
        gate.record_service_time(0.1)
        assert gate.retry_after_ms() == pytest.approx(1000.0 * 0.1 / 2)
        # alpha=0.2: 0.1 + 0.2 * (0.2 - 0.1) = 0.12
        gate.record_service_time(0.2)
        assert gate.retry_after_ms() == pytest.approx(1000.0 * 0.12 / 2)

    def test_hint_scales_with_backlog(self):
        from repro.obs import get_metrics

        gate = self._gate(max_concurrency=1, queue_depth=0)
        gate.record_service_time(0.04)
        gate.admit(None, get_metrics())  # takes the only slot
        try:
            with pytest.raises(OverloadedError) as info:
                gate.admit(None, get_metrics())
        finally:
            gate.release(get_metrics())
        # backlog = (1-1) + 0 waiting + 1 = 1 -> 1000 * 0.04 * 1 / 1.
        assert info.value.retry_after_ms == pytest.approx(40.0)

    def test_hint_floor_is_one_millisecond(self):
        gate = self._gate(max_concurrency=8)
        gate.record_service_time(0.000001)
        assert gate.retry_after_ms() == 1.0


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestBreaker:
    def test_state_machine_cycle(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=3,
            cooldown=10.0,
            half_open_successes=2,
            clock=lambda: clock[0],
        )
        assert breaker.state == CLOSED
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == CLOSED  # below threshold
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN  # tripped
        assert not breaker.allow()  # cooldown not elapsed
        clock[0] = 10.0
        assert breaker.allow()  # first probe admitted
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # probe budget of 1 exhausted
        breaker.record_success()
        assert breaker.state == HALF_OPEN  # needs 2 consecutive successes
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.transitions == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_probe_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=5.0, clock=lambda: clock[0]
        )
        breaker.allow()
        breaker.record_failure()
        clock[0] = 5.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()  # cooldown restarted at t=5
        clock[0] = 9.9
        assert not breaker.allow()
        clock[0] = 10.0
        assert breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # the streak never reached 2

    def test_gateway_trips_and_recovers(self, live, query):
        clock = [0.0]
        plan = FaultPlan()
        gw = ServingGateway(
            live,
            config=GatewayConfig(
                breaker_failure_threshold=2, breaker_cooldown=10.0, retry_attempts=0
            ),
            faults=plan,
            breaker_clock=lambda: clock[0],
        )
        plan.arm_failures(SERVE_SOCIAL_POINT, -1)
        for _ in range(2):
            result = gw.recommend(query, top_k=4)
            assert result.degraded and result.omega_served == 0.0
        assert gw.breaker.state == OPEN
        # While open the social point isn't even attempted.
        fired_while_open = len(plan.fired)
        short_circuited = gw.recommend(query, top_k=4)
        assert short_circuited.degraded
        assert len(plan.fired) == fired_while_open
        assert any("circuit breaker open" in r for r in short_circuited.reasons)
        # Dependency recovers; after the cooldown a probe closes the breaker.
        plan.arm_failures(SERVE_SOCIAL_POINT, 0)
        clock[0] = 10.0
        healthy = gw.recommend(query, top_k=4)
        assert not healthy.degraded
        assert healthy.omega_served == live.config.omega
        assert gw.breaker.state == CLOSED
        assert gw.breaker.transitions == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_degraded_ranking_matches_content_only_oracle(self, live, query):
        plan = FaultPlan()
        gw = ServingGateway(
            live,
            config=GatewayConfig(breaker_failure_threshold=1, retry_attempts=0),
            faults=plan,
        )
        plan.arm_failures(SERVE_SOCIAL_POINT, -1)
        degraded = gw.recommend(query, top_k=8)
        oracle = FusionRecommender(live, omega=0.0)
        assert list(degraded) == list(oracle.recommend(query, top_k=8))


# ----------------------------------------------------------------------
# Retry / backoff
# ----------------------------------------------------------------------
class TestRetry:
    def test_transient_fault_retried_to_success(self, live, query):
        plan = FaultPlan()
        gw = ServingGateway(
            live,
            config=GatewayConfig(retry_attempts=2, retry_backoff=1e-4),
            faults=plan,
        )
        plan.arm_failures(SERVE_SOCIAL_POINT, 2)  # flaps twice, then recovers
        result = gw.recommend(query, top_k=4)
        assert not result.degraded
        assert gw.breaker.state == CLOSED
        assert plan.fired.count(SERVE_SOCIAL_POINT) == 3

    def test_exhausted_retries_degrade_and_count_failure(self, live, query):
        plan = FaultPlan()
        gw = ServingGateway(
            live,
            config=GatewayConfig(
                retry_attempts=1, retry_backoff=1e-4, breaker_failure_threshold=1
            ),
            faults=plan,
        )
        plan.arm_failures(SERVE_SOCIAL_POINT, -1)
        result = gw.recommend(query, top_k=4)
        assert result.degraded
        assert gw.breaker.state == OPEN
        assert plan.fired.count(SERVE_SOCIAL_POINT) == 2  # initial + 1 retry


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_concurrency": 0},
            {"queue_depth": -1},
            {"queue_timeout": -0.1},
            {"default_deadline": 0.0},
            {"retry_attempts": -1},
        ],
    )
    def test_gateway_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            GatewayConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"failure_threshold": 0},
            {"cooldown": -1.0},
            {"half_open_probes": 0},
            {"half_open_successes": 0},
        ],
    )
    def test_breaker_rejects(self, kwargs):
        with pytest.raises(ValueError):
            CircuitBreaker(**kwargs)


# ----------------------------------------------------------------------
# Batched mutations (one epoch per block)
# ----------------------------------------------------------------------
class TestBatchedMutations:
    def test_block_publishes_once_at_exit(self, live, workload, spare_ids):
        gateway = ServingGateway(live)
        before = gateway.epochs.published_total
        frozen = gateway.current_epoch
        try:
            with gateway.mutations():
                for vid in spare_ids:
                    gateway.ingest_video(workload.dataset.records[vid])
                gateway.apply_comments(
                    [("u_batch", live.video_ids[0])]
                )
                # Mid-block, readers still serve the pre-block epoch.
                assert gateway.current_epoch is frozen
            assert gateway.epochs.published_total == before + 1
            assert gateway.current_epoch is not frozen
            for vid in spare_ids:
                assert vid in gateway.current_epoch.series
        finally:
            with gateway.mutations():
                for vid in spare_ids:
                    gateway.retire_video(vid)

    def test_blocks_nest_and_publish_at_outermost_exit(
        self, live, workload, spare_ids
    ):
        gateway = ServingGateway(live)
        before = gateway.epochs.published_total
        try:
            with gateway.mutations():
                gateway.ingest_video(workload.dataset.records[spare_ids[0]])
                with gateway.mutations():
                    gateway.ingest_video(workload.dataset.records[spare_ids[1]])
                assert gateway.epochs.published_total == before  # still held
            assert gateway.epochs.published_total == before + 1
        finally:
            with gateway.mutations():
                for vid in spare_ids:
                    gateway.retire_video(vid)

    def test_publish_happens_even_on_exception(self, live, workload, spare_ids):
        gateway = ServingGateway(live)
        before = gateway.epochs.published_total
        with pytest.raises(RuntimeError, match="boom"):
            with gateway.mutations():
                gateway.ingest_video(workload.dataset.records[spare_ids[0]])
                raise RuntimeError("boom")
        # The ingest already applied to the master, so the deferred
        # publish must still land — otherwise readers never see it.
        assert gateway.epochs.published_total == before + 1
        assert spare_ids[0] in gateway.current_epoch.series
        gateway.retire_video(spare_ids[0])

    def test_block_without_mutations_publishes_nothing(self, live):
        gateway = ServingGateway(live)
        before = gateway.epochs.published_total
        with gateway.mutations():
            pass
        assert gateway.epochs.published_total == before


# ----------------------------------------------------------------------
# Memo invalidation accounting
# ----------------------------------------------------------------------
class TestMemoInvalidateCounter:
    def test_publication_counts_dropped_entries(self, live, query):
        from repro.obs.metrics import MetricsRegistry, use_metrics

        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = ServingGateway(
                live, config=GatewayConfig(default_deadline=None)
            )
            queries = list(live.video_ids)[:3]
            for q in queries:
                gateway.recommend(q, 5)  # three resident memo entries
            gateway.apply_comments([("u_inval", query)])
            counters = registry.snapshot()["counters"]
            assert counters.get("repro_serving_memo_invalidate_total", 0) == 3
            # An empty memo invalidation adds nothing to the counter.
            gateway.apply_comments([("u_inval2", query)])
            counters = registry.snapshot()["counters"]
            assert counters.get("repro_serving_memo_invalidate_total", 0) == 3

    def test_ledger_reconciles(self, live):
        """puts == invalidated + evicted + resident (no lost entries)."""
        from repro.obs.metrics import MetricsRegistry, use_metrics
        from repro.serving.gateway import _QueryMemo

        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = ServingGateway(
                live, config=GatewayConfig(default_deadline=None, memo_capacity=2)
            )
            queries = list(live.video_ids)[:4]
            for q in queries:
                gateway.recommend(q, 5)  # 4 puts, capacity 2 -> 2 evictions
            gateway.advance_watermark(live.up_to_month)  # drops the rest
            counters = registry.snapshot()["counters"]
            assert counters.get("repro_serving_memo_evict_total", 0) == 2
            assert counters.get("repro_serving_memo_invalidate_total", 0) == 2
            assert isinstance(gateway._memo, _QueryMemo)
            assert len(gateway._memo) == 0
