"""Adversarial-workload defense layer: units, gateway wiring, HTTP, parity.

Deterministic single-process tests of every defense mechanism (DESIGN
§16) — the multi-threaded attack torture lives in the chaos scenarios
(``test_chaos_soak.py``):

* :class:`SingleFlight` semantics and the gateway's flash-crowd
  coalescing (follower results bit-identical to the leader's, error
  propagation, timeout fallback to the full serving path);
* hot-key priority admission ordering in the gate;
* :class:`PublishGovernor` deferral arithmetic under an injected clock
  and the gateway's deferred-publication visibility (staleness bound,
  timer flush);
* the :class:`SpamGuard` three-state machine — hold, release-on-clear,
  revoke-on-confirm — including quarantine-WAL restart replay and the
  membership probe that keeps no-op applications non-revocable;
* ``remove_comments`` revocation parity down the whole stack (descriptor
  shrink, partition re-derivation, sketch XOR self-inverse);
* the breaker's half-open concurrent-probe trial (one winner, losers
  short-circuited, failed trial re-opens with jittered backoff);
* the quarantine in front of ``POST /interaction`` (429 for confirmed
  spammers, withheld interactions stay withheld across restart);
* knobs-off parity: the default :class:`DefenseConfig` leaves served
  rankings bit-identical to a gateway without the defense layer.
"""

from __future__ import annotations

import json
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import LiveCommunityIndex
from repro.defense import (
    TIMEOUT,
    DefenseConfig,
    PublishGovernor,
    SingleFlight,
    SpamGuard,
    init_defense_metrics,
    replay_quarantine,
)
from repro.errors import OverloadedError, SpamQuarantinedError
from repro.net import InteractionLog, NetConfig, RecommendService
from repro.obs import MetricsRegistry, use_metrics
from repro.serving import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, GatewayConfig, ServingGateway
from repro.serving.gateway import _AdmissionGate


@pytest.fixture(scope="module")
def live(workload, config):
    """A live index over the test community (mutating tests self-revert)."""
    dataset = workload.dataset
    live = LiveCommunityIndex(dataset.subset(sorted(dataset.records)), config)
    live.dataset.comments = list(dataset.comments)
    return live


@pytest.fixture(scope="module")
def query(live):
    return live.video_ids[0]


# ----------------------------------------------------------------------
# DefenseConfig knobs
# ----------------------------------------------------------------------
class TestDefenseConfig:
    def test_defaults_disable_everything(self):
        config = DefenseConfig()
        assert not config.coalesce
        assert not config.hot_priority
        assert config.min_publish_interval == 0.0
        assert not config.quarantine
        assert not config.serving_enabled

    def test_serving_enabled_flags(self):
        assert DefenseConfig(coalesce=True).serving_enabled
        assert DefenseConfig(hot_priority=True).serving_enabled
        assert DefenseConfig(min_publish_interval=0.1).serving_enabled
        assert not DefenseConfig(quarantine=True).serving_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coalesce_wait": 0.0},
            {"min_publish_interval": -0.1},
            {"max_deferred_mutations": 0},
            {"spam_window": 0.0},
            {"spam_burst": 1},
            {"spam_burst": 8, "spam_confirm": 8},
            {"spam_burst": 8, "spam_clear": 8},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            DefenseConfig(**kwargs)


# ----------------------------------------------------------------------
# SingleFlight
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_first_caller_leads_duplicates_follow(self):
        flights = SingleFlight()
        leader, flight = flights.begin(("q", 5))
        assert leader
        follower, same = flights.begin(("q", 5))
        assert not follower and same is flight
        other, _ = flights.begin(("other", 5))
        assert other  # distinct keys never coalesce

    def test_finish_publishes_result_to_waiters(self):
        flights = SingleFlight()
        _, flight = flights.begin(("q",))
        got = []
        thread = threading.Thread(
            target=lambda: got.append(flights.wait(flight, 5.0))
        )
        thread.start()
        flights.finish(("q",), flight, result="answer")
        thread.join(5.0)
        assert got == ["answer"]
        # The finished flight is gone: the next caller leads again.
        assert flights.begin(("q",))[0]

    def test_leader_error_raises_in_followers(self):
        flights = SingleFlight()
        _, flight = flights.begin(("q",))
        flights.finish(("q",), flight, error=OverloadedError("shed"))
        with pytest.raises(OverloadedError):
            flights.wait(flight, 5.0)

    def test_wait_budget_returns_timeout_sentinel(self):
        flights = SingleFlight()
        _, flight = flights.begin(("q",))
        assert flights.wait(flight, 0.001) is TIMEOUT

    def test_timeout_is_not_a_none_result(self):
        flights = SingleFlight()
        _, flight = flights.begin(("q",))
        flights.finish(("q",), flight, result=None)
        assert flights.wait(flight, 5.0) is None  # a real None, not TIMEOUT


# ----------------------------------------------------------------------
# Gateway coalescing (flash-crowd protection)
# ----------------------------------------------------------------------
def _wedge_serve(gateway, calls_to_wedge=1):
    """Make the next *calls_to_wedge* ``_admitted_recommend`` calls park
    on an event.

    Returns ``(entered, hold)``: *entered* fires when a wedged call is
    inside the serving path, *hold* releases it.
    """
    entered, hold = threading.Event(), threading.Event()
    original = gateway._admitted_recommend
    remaining = [calls_to_wedge]
    lock = threading.Lock()

    def wedged(*args, **kwargs):
        with lock:
            wedge = remaining[0] > 0
            if wedge:
                remaining[0] -= 1
        if wedge:
            entered.set()
            hold.wait(10.0)
        return original(*args, **kwargs)

    gateway._admitted_recommend = wedged
    return entered, hold


def _park_probe(gateway):
    """Instrument ``SingleFlight.wait`` to signal when a follower parks."""
    parked = threading.Event()
    original = gateway._flights.wait

    def wait(flight, timeout):
        parked.set()
        return original(flight, timeout)

    gateway._flights.wait = wait
    return parked


class TestGatewayCoalescing:
    def _gateway(self, live, **defense_kwargs):
        return ServingGateway(
            live,
            config=GatewayConfig(
                defense=DefenseConfig(coalesce=True, **defense_kwargs)
            ),
        )

    def test_follower_receives_leader_result_bit_identically(self, live, query):
        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = self._gateway(live)
            entered, hold = _wedge_serve(gateway)
            parked = _park_probe(gateway)
            results = {}
            leader = threading.Thread(
                target=lambda: results.update(lead=gateway.recommend(query, 8))
            )
            leader.start()
            assert entered.wait(5.0)
            follower = threading.Thread(
                target=lambda: results.update(follow=gateway.recommend(query, 8))
            )
            follower.start()
            assert parked.wait(5.0)  # follower joined the flight pre-admission
            hold.set()
            leader.join(5.0)
            follower.join(5.0)
        lead, follow = results["lead"], results["follow"]
        assert list(follow) == list(lead)
        assert follow.scores == lead.scores
        assert follow.epoch_id == lead.epoch_id
        assert getattr(follow, "coalesced", False) is True
        assert not getattr(lead, "coalesced", False)
        counters = registry.snapshot()["counters"]
        assert counters["repro_defense_coalesce_leaders_total"] == 1
        assert counters["repro_defense_coalesced_followers_total"] == 1
        # Both calls count as served queries (the follower cost no scan).
        assert counters["repro_serving_queries_total"] == 2

    def test_leader_error_sheds_the_whole_flock(self, live, query):
        gateway = self._gateway(live)
        entered, hold = _wedge_serve(gateway)
        parked = _park_probe(gateway)
        outcomes = {}

        def lead():
            try:
                gateway.recommend(query, 8)
            except OverloadedError as error:
                outcomes["lead"] = error

        def follow():
            try:
                gateway.recommend(query, 8)
            except OverloadedError as error:
                outcomes["follow"] = error

        original = gateway._admitted_recommend

        def shedding(*args, **kwargs):
            entered.set()
            hold.wait(10.0)
            raise OverloadedError("shed", retry_after_ms=10.0)

        gateway._admitted_recommend = shedding
        leader = threading.Thread(target=lead)
        leader.start()
        assert entered.wait(5.0)
        follower = threading.Thread(target=follow)
        follower.start()
        assert parked.wait(5.0)
        hold.set()
        leader.join(5.0)
        follower.join(5.0)
        gateway._admitted_recommend = original
        # One shed leader shed the duplicate too — same typed error.
        assert isinstance(outcomes["lead"], OverloadedError)
        assert isinstance(outcomes["follow"], OverloadedError)

    def test_follower_timeout_falls_back_to_own_scan(self, live, query):
        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = self._gateway(live, coalesce_wait=0.02)
            entered, hold = _wedge_serve(gateway, calls_to_wedge=1)
            results = {}
            leader = threading.Thread(
                target=lambda: results.update(lead=gateway.recommend(query, 8))
            )
            leader.start()
            assert entered.wait(5.0)
            # The follower outwaits its 20ms budget while the leader is
            # wedged, then serves itself (the wedge only holds call #1).
            results["follow"] = gateway.recommend(query, 8)
            hold.set()
            leader.join(5.0)
        assert list(results["follow"]) == list(results["lead"])
        assert not getattr(results["follow"], "coalesced", False)
        counters = registry.snapshot()["counters"]
        assert counters["repro_defense_coalesce_timeouts_total"] == 1
        assert counters.get("repro_defense_coalesced_followers_total", 0) == 0

    def test_sequential_queries_never_coalesce(self, live, query):
        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = self._gateway(live)
            first = gateway.recommend(query, 8)
            second = gateway.recommend(query, 8)
        assert list(first) == list(second)
        assert not getattr(second, "coalesced", False)
        counters = registry.snapshot()["counters"]
        assert counters.get("repro_defense_coalesced_followers_total", 0) == 0


# ----------------------------------------------------------------------
# Sharded gateway: the same defenses on the scatter-gather path
# ----------------------------------------------------------------------
class TestShardedGatewayDefense:
    @pytest.fixture(scope="class")
    def sharded(self, workload, config):
        from repro.sharding import ShardedIndex

        return ShardedIndex.build(workload.dataset, config, 2)

    def test_armed_sharded_gateway_serves_bit_identically(self, live, sharded):
        from repro.sharding import ShardedGateway

        plain = ServingGateway(live)
        defended = ShardedGateway(
            sharded,
            config=GatewayConfig(
                defense=DefenseConfig(coalesce=True, hot_priority=True)
            ),
        )
        try:
            for query in live.video_ids[:4]:
                expected = plain.recommend(query, 8)
                got = defended.recommend(query, 8)
                assert list(got) == list(expected)
                assert got.scores == expected.scores
        finally:
            defended.close()

    def test_sharded_followers_coalesce_onto_one_scatter(self, sharded):
        from repro.sharding import ShardedGateway

        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = ShardedGateway(
                sharded,
                config=GatewayConfig(defense=DefenseConfig(coalesce=True)),
            )
            try:
                query = sharded.video_ids[0]
                entered, hold = threading.Event(), threading.Event()
                original = gateway._admitted_recommend
                wedged_once = []

                def wedged(*args, **kwargs):
                    if not wedged_once:
                        wedged_once.append(True)
                        entered.set()
                        hold.wait(10.0)
                    return original(*args, **kwargs)

                gateway._admitted_recommend = wedged
                parked = threading.Event()
                original_wait = gateway._flights.wait

                def wait(flight, timeout):
                    parked.set()
                    return original_wait(flight, timeout)

                gateway._flights.wait = wait
                results = {}
                leader = threading.Thread(
                    target=lambda: results.update(lead=gateway.recommend(query, 8))
                )
                leader.start()
                assert entered.wait(5.0)
                follower = threading.Thread(
                    target=lambda: results.update(follow=gateway.recommend(query, 8))
                )
                follower.start()
                assert parked.wait(5.0)
                hold.set()
                leader.join(5.0)
                follower.join(5.0)
            finally:
                gateway.close()
        assert list(results["follow"]) == list(results["lead"])
        assert results["follow"].scores == results["lead"].scores
        assert getattr(results["follow"], "coalesced", False) is True
        counters = registry.snapshot()["counters"]
        assert counters["repro_defense_coalesced_followers_total"] == 1


# ----------------------------------------------------------------------
# Hot-key priority admission
# ----------------------------------------------------------------------
class TestHotPriorityGate:
    def test_hot_waiter_admitted_before_queued_cold_scan(self):
        registry = MetricsRegistry()
        gate = _AdmissionGate(1, 4, queue_timeout=5.0, hot_priority=True)
        gate.admit(None, registry)  # occupy the only slot
        order = []

        def waiter(tag, hot):
            gate.admit(None, registry, hot=hot)
            order.append(tag)
            gate.release(registry)

        hot = threading.Thread(target=waiter, args=("hot", True))
        hot.start()
        deadline = time.monotonic() + 5.0
        while gate._waiting_hot < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert gate._waiting_hot == 1
        cold = threading.Thread(target=waiter, args=("cold", False))
        cold.start()
        while gate._waiting < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        gate.release(registry)  # free the slot: the hot waiter must win
        hot.join(5.0)
        cold.join(5.0)
        assert order == ["hot", "cold"]
        assert registry.value("repro_defense_hot_admissions_total") == 1

    def test_hot_flag_inert_without_the_knob(self):
        registry = MetricsRegistry()
        gate = _AdmissionGate(1, 4, queue_timeout=5.0, hot_priority=False)
        gate.admit(None, registry, hot=True)  # free slot: straight in
        gate.release(registry)
        assert registry.value("repro_defense_hot_admissions_total") == 0


# ----------------------------------------------------------------------
# PublishGovernor
# ----------------------------------------------------------------------
class TestPublishGovernor:
    def test_first_publication_never_deferred(self):
        governor = PublishGovernor(1.0, clock=lambda: 0.0)
        assert not governor.should_defer()

    def test_defers_inside_the_interval(self):
        clock = [0.0]
        governor = PublishGovernor(1.0, clock=lambda: clock[0])
        governor.published()
        clock[0] = 0.5
        assert governor.should_defer()
        assert governor.deferred == 1
        assert governor.delay_remaining() == pytest.approx(0.5)
        clock[0] = 1.0
        assert not governor.should_defer()  # interval elapsed
        governor.published()
        assert governor.deferred == 0

    def test_max_deferred_forces_publication_through(self):
        clock = [0.0]
        governor = PublishGovernor(60.0, max_deferred=3, clock=lambda: clock[0])
        governor.published()
        assert governor.should_defer()
        assert governor.should_defer()
        # The third mutation would stack a 3rd deferral: staleness bound.
        assert not governor.should_defer()

    @pytest.mark.parametrize("kwargs", [{"min_interval": 0.0}, {"max_deferred": 0}])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            PublishGovernor(**{"min_interval": 1.0, **kwargs})


@pytest.fixture(scope="module")
def sharded_live(workload, config):
    """A 2-shard index over the test community (mutating tests self-revert)."""
    from repro.sharding import ShardedIndex

    return ShardedIndex.build(workload.dataset, config, 2)


class TestGatewayPublishBackpressure:
    @pytest.fixture(params=["single", "sharded"])
    def served(self, request, live, query):
        """Gateways of one kind plus what the tests read off them.

        ``epochs`` / ``current`` are the publication ledger and the
        epoch readers pin on *query*'s shard (the only one for the
        single gateway); ``store`` is the master's social store the
        mutations apply to; ``revert`` undoes a test's comments.
        """
        if request.param == "single":
            make = lambda config: ServingGateway(live, config=config)
            served = SimpleNamespace(
                epochs=lambda gateway: gateway.epochs,
                current=lambda gateway: gateway.current_epoch,
                store=live.social_store,
                revert=live.social_store.remove_comments,
            )
        else:
            from repro.sharding import ShardedGateway

            sharded = request.getfixturevalue("sharded_live")
            owner = sharded.owner_of(query)
            make = lambda config: ShardedGateway(sharded, config=config)

            def revert(comments):
                for shard in sharded.shards:
                    shard.social_store.remove_comments(comments)

            served = SimpleNamespace(
                epochs=lambda gateway: gateway.gateways[owner].epochs,
                current=lambda gateway: gateway.current_epochs[owner],
                store=sharded.shards[owner].social_store,
                revert=revert,
            )
        built = []

        def gateway(config=None):
            built.append(make(config))
            return built[-1]

        served.gateway = gateway
        yield served
        for built_gateway in built:
            if hasattr(built_gateway, "close"):
                built_gateway.close()

    def test_mutation_inside_interval_defers_visibility_not_application(
        self, served, query
    ):
        registry = MetricsRegistry()
        with use_metrics(registry):
            gateway = served.gateway(
                GatewayConfig(
                    defense=DefenseConfig(
                        min_publish_interval=60.0, max_deferred_mutations=2
                    )
                ),
            )
            frozen = served.current(gateway)
            published = served.epochs(gateway).published_total
            gateway.apply_comments([("u_governor", query)])
            # Applied to the master immediately...
            assert "u_governor" in served.store.descriptors[query].users
            # ...but the publication deferred: readers still see the old epoch.
            assert served.current(gateway) is frozen
            assert served.epochs(gateway).published_total == published
            assert registry.value("repro_defense_deferred_publishes_total") == 1
            # The staleness bound: the second deferred-in-interval mutation
            # forces the accumulated batch through as one publication.
            gateway.apply_comments([("u_governor2", query)])
            assert served.epochs(gateway).published_total == published + 1
            current = served.current(gateway)
            assert "u_governor" in current.descriptor(query).users
            assert "u_governor2" in current.descriptor(query).users
        served.revert([("u_governor", query), ("u_governor2", query)])

    def test_timer_flushes_deferred_publication(self, served, query):
        gateway = served.gateway(
            GatewayConfig(
                defense=DefenseConfig(min_publish_interval=0.05)
            ),
        )
        published = served.epochs(gateway).published_total
        gateway.apply_comments([("u_timer", query)])  # deferred
        assert served.epochs(gateway).published_total == published
        deadline = time.monotonic() + 5.0
        while (
            served.epochs(gateway).published_total == published
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        assert served.epochs(gateway).published_total == published + 1
        assert "u_timer" in served.current(gateway).descriptor(query).users
        served.revert([("u_timer", query)])

    def test_no_interval_publishes_per_mutation(self, served, query):
        gateway = served.gateway()  # knobs off
        published = served.epochs(gateway).published_total
        gateway.apply_comments([("u_plain", query)])
        assert served.epochs(gateway).published_total == published + 1
        served.revert([("u_plain", query)])


# ----------------------------------------------------------------------
# SpamGuard state machine
# ----------------------------------------------------------------------
GUARD_CONFIG = DefenseConfig(
    quarantine=True, spam_window=10.0, spam_burst=3, spam_confirm=5, spam_clear=1
)


def _guard(clock, wal_path=None, membership=None, config=GUARD_CONFIG):
    return SpamGuard(
        config, wal_path=wal_path, clock=lambda: clock[0], membership=membership
    )


class TestSpamGuard:
    def test_normal_traffic_passes(self):
        guard = _guard([0.0])
        verdict = guard.filter([("alice", "v1"), ("bob", "v2")])
        assert verdict.passed == [("alice", "v1"), ("bob", "v2")]
        assert verdict.held == verdict.blocked == 0
        assert guard.state_of("alice") == "normal"

    def test_burst_quarantines_instead_of_applying(self):
        guard = _guard([0.0])
        assert guard.filter([("bot", "v1"), ("bot", "v2")]).passed  # 2 in window
        verdict = guard.filter([("bot", "v3")])  # 3rd trips spam_burst
        assert verdict.passed == []
        assert verdict.held == 1
        assert guard.state_of("bot") == "suspect"
        assert guard.held_comments == 1
        assert guard.suspect_users == 1

    def test_confirm_revokes_in_window_applications(self):
        clock = [0.0]
        guard = _guard(clock)
        guard.filter([("bot", "v1"), ("bot", "v2")])  # applied while normal
        guard.filter([("bot", "v3"), ("bot", "v4")])  # held (suspect)
        verdict = guard.filter([("bot", "v5")])  # 5th confirms
        assert guard.state_of("bot") == "confirmed"
        assert verdict.revoked == [("bot", "v1"), ("bot", "v2")]
        assert verdict.blocked == 1  # the confirming comment is dropped
        assert guard.held_comments == 0  # held pairs dropped, not released

    def test_confirmed_user_blocked_outright(self):
        guard = _guard([0.0])
        for video in ("v1", "v2", "v3", "v4", "v5"):
            guard.filter([("bot", video)])
        verdict = guard.filter([("bot", "v9"), ("alice", "v1")])
        assert verdict.blocked == 1
        assert verdict.passed == [("alice", "v1")]

    def test_stale_applications_age_out_of_revocation(self):
        clock = [0.0]
        guard = _guard(clock)
        guard.filter([("bot", "v1")])  # applied at t=0
        clock[0] = 100.0  # far outside the 10s window
        guard.filter([("bot", "v2"), ("bot", "v3")])
        guard.filter([("bot", "v4"), ("bot", "v5")])
        verdict = guard.filter([("bot", "v6")])
        assert guard.state_of("bot") == "confirmed"
        # Only the in-window applications are revocable; v1 is ancient.
        assert verdict.revoked == [("bot", "v2"), ("bot", "v3")]

    def test_subsided_burst_released_late_not_lost(self):
        clock = [0.0]
        guard = _guard(clock)
        for video in ("v1", "v2", "v3", "v4"):
            guard.filter([("fan", video)])  # v3, v4 held
        assert guard.state_of("fan") == "suspect"
        clock[0] = 60.0  # window empties: count 0 <= spam_clear
        verdict = guard.poll()
        assert verdict.released == 2
        assert verdict.passed == [("fan", "v3"), ("fan", "v4")]
        assert guard.state_of("fan") == "normal"
        assert guard.held_comments == 0

    def test_released_pairs_become_revocable(self):
        clock = [0.0]
        guard = _guard(clock)
        for video in ("v1", "v2", "v3", "v4"):
            guard.filter([("fan", video)])
        clock[0] = 60.0
        guard.poll()  # releases + applies v3, v4
        # The burst resumes straight to confirmation: the release-time
        # applications are in-window and must be un-applied too.
        for video in ("v5", "v6", "v7", "v8"):
            guard.filter([("fan", video)])
        verdict = guard.filter([("fan", "v9")])
        assert guard.state_of("fan") == "confirmed"
        assert ("fan", "v3") in verdict.revoked
        assert ("fan", "v4") in verdict.revoked

    def test_membership_probe_keeps_noop_applications_irrevocable(self):
        clock = [0.0]
        already = {("bot", "v1")}
        guard = _guard(clock, membership=lambda u, v: (u, v) in already)
        guard.filter([("bot", "v1"), ("bot", "v2")])  # v1 is a no-op apply
        guard.filter([("bot", "v3"), ("bot", "v4")])
        verdict = guard.filter([("bot", "v5")])
        # Revoking the no-op would remove a membership the spammer never
        # added; only the genuinely new v2 application is un-applied.
        assert verdict.revoked == [("bot", "v2")]

    def test_refs_must_align_with_pairs(self):
        guard = _guard([0.0])
        with pytest.raises(ValueError, match="refs"):
            guard.filter([("a", "v1"), ("b", "v2")], refs=[1])

    def test_counters_and_gauges_recorded(self):
        registry = MetricsRegistry()
        with use_metrics(registry):
            guard = _guard([0.0])
            for video in ("v1", "v2", "v3", "v4", "v5", "v6"):
                guard.filter([("bot", video)])
        counters = registry.snapshot()["counters"]
        assert counters["repro_defense_quarantined_users_total"] == 1
        assert counters["repro_defense_quarantined_comments_total"] == 2
        assert counters["repro_defense_confirmed_spammers_total"] == 1
        assert counters["repro_defense_revoked_comments_total"] == 2
        assert counters["repro_defense_blocked_comments_total"] == 2
        gauges = registry.snapshot()["gauges"]
        assert gauges["repro_defense_suspect_users"] == 0.0
        assert gauges["repro_defense_held_comments"] == 0.0

    def test_init_defense_metrics_registers_whole_family(self):
        registry = MetricsRegistry()
        init_defense_metrics(registry)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["repro_defense_coalesced_followers_total"] == 0
        assert snapshot["counters"]["repro_defense_quarantined_comments_total"] == 0
        assert snapshot["gauges"]["repro_defense_suspect_users"] == 0.0


class TestQuarantineWal:
    def _drive(self, clock, path):
        """Hold two of fan's comments; confirm bot with two revocations."""
        guard = _guard(clock, wal_path=path)
        guard.filter([("fan", "v1")], refs=[1])
        guard.filter([("fan", "v2")], refs=[2])
        guard.filter([("fan", "v3")], refs=[3])  # held
        guard.filter([("fan", "v4")], refs=[4])  # held
        for ref, video in enumerate(("w1", "w2", "w3", "w4", "w5"), start=5):
            guard.filter([("bot", video)], refs=[ref])
        guard.close()
        return guard

    def test_replay_reconstructs_withheld_and_revoked(self, tmp_path):
        path = tmp_path / "quarantine.wal"
        self._drive([0.0], path)
        replay = replay_quarantine(path)
        # fan's held refs + bot's held refs (7, 8) + bot's blocked ref (9).
        assert replay.withheld_refs == {3, 4, 7, 8, 9}
        assert replay.revoke_pairs == [("bot", "w1"), ("bot", "w2")]
        assert set(replay.held) == {"fan"}
        assert [video for _, video, _ in replay.held["fan"]] == ["v3", "v4"]
        assert replay.confirmed == {"bot"}

    def test_restarted_guard_carries_states_across(self, tmp_path):
        path = tmp_path / "quarantine.wal"
        self._drive([0.0], path)
        reborn = _guard([1000.0], wal_path=path)
        assert reborn.state_of("bot") == "confirmed"
        assert reborn.state_of("fan") == "suspect"
        assert reborn.held_comments == 2
        # Confirmed spammers stay blocked after restart.
        verdict = reborn.filter([("bot", "w9")], refs=[10])
        assert verdict.blocked == 1
        reborn.close()

    def test_release_clears_the_replay_holds(self, tmp_path):
        clock = [0.0]
        path = tmp_path / "quarantine.wal"
        guard = _guard(clock, wal_path=path)
        for ref, video in enumerate(("v1", "v2", "v3", "v4"), start=1):
            guard.filter([("fan", video)], refs=[ref])
        clock[0] = 60.0
        guard.poll()  # release
        guard.close()
        replay = replay_quarantine(path)
        # Released pairs re-apply via their original interaction records.
        assert replay.withheld_refs == set()
        assert replay.held == {}
        assert replay.confirmed == set()

    def test_missing_wal_is_an_empty_replay(self, tmp_path):
        replay = replay_quarantine(tmp_path / "nope.wal")
        assert replay.withheld_refs == set()
        assert replay.revoke_pairs == []


# ----------------------------------------------------------------------
# Revocation parity down the stack
# ----------------------------------------------------------------------
class TestRemoveCommentsParity:
    def test_descriptor_without_users(self, live, query):
        descriptor = live.social_store.descriptors[query]
        users = sorted(descriptor.users)[:2]
        shrunk = descriptor.without_users(users)
        assert shrunk.users == descriptor.users - set(users)
        assert shrunk.video_id == descriptor.video_id

    def test_apply_then_remove_restores_descriptors(self, live, query):
        store = live.social_store
        before = store.descriptors[query].users
        store.apply_comments([("u_revoke", query)])
        assert "u_revoke" in store.descriptors[query].users
        assert store.remove_comments([("u_revoke", query)]) == 1
        assert store.descriptors[query].users == before
        # Revoking a membership that does not exist is itself a no-op.
        assert store.remove_comments([("u_revoke", query)]) == 0

    def test_sketch_xor_self_inverse_restores_rows(self, live, query):
        store = live.social_store
        bank = store.sketches()
        row_before, size_before = bank.row(query)
        row_before = row_before.copy()
        store.apply_comments([("u_sketch", query)])
        toggled, _ = bank.row(query)
        assert not np.array_equal(toggled, row_before)
        store.remove_comments([("u_sketch", query)])
        row_after, size_after = bank.row(query)
        assert np.array_equal(row_after, row_before)
        assert size_after == size_before

    def test_gateway_revocation_publishes_clean_epoch(self, live, query):
        gateway = ServingGateway(live)
        baseline = list(gateway.recommend(query, 8))
        spam = [(f"spam-{i}", vid) for i in range(6) for vid in live.video_ids[:3]]
        gateway.apply_comments(spam)
        assert gateway.remove_comments(spam) == len(spam)
        restored = gateway.recommend(query, 8)
        # The post-revocation epoch ranks exactly like the pre-spam one.
        assert list(restored) == baseline
        for vid in live.video_ids[:3]:
            users = gateway.current_epoch.descriptor(vid).users
            assert not any(user.startswith("spam-") for user in users)

    def test_live_index_logs_revocations_to_the_wal(self, workload, config, tmp_path):
        # remove_comments is durable: replaying the WAL over the snapshot
        # reproduces the post-revocation state (spam stays gone).
        from repro.io import WriteAheadLog, recover, save_index

        dataset = workload.dataset
        replica = LiveCommunityIndex(
            dataset.subset(sorted(dataset.records)[:12]), config
        )
        replica.dataset.comments = list(dataset.comments)
        query = replica.video_ids[0]
        snapshot = tmp_path / "snap.json.gz"
        wal_path = tmp_path / "log.jsonl"
        save_index(replica, snapshot)
        with WriteAheadLog(wal_path) as wal:
            replica.attach_wal(wal)
            replica.apply_comments([("u_wal_spam", query)])
            assert replica.remove_comments([("u_wal_spam", query)]) == 1
        recovered = recover(snapshot, wal_path)
        assert recovered.recovery.replayed == 2
        assert "u_wal_spam" not in recovered.social_store.descriptors[query].users


# ----------------------------------------------------------------------
# Knobs-off / knobs-on parity pinning
# ----------------------------------------------------------------------
class TestParityPinning:
    def test_default_defense_config_builds_no_machinery(self, live):
        gateway = ServingGateway(
            live, config=GatewayConfig(defense=DefenseConfig())
        )
        assert gateway._flights is None
        assert gateway._governor is None

    def test_armed_serving_defenses_serve_bit_identically(self, live):
        plain = ServingGateway(live)
        defended = ServingGateway(
            live,
            config=GatewayConfig(
                defense=DefenseConfig(coalesce=True, hot_priority=True)
            ),
        )
        for query in live.video_ids[:4]:
            expected = plain.recommend(query, 8)
            got = defended.recommend(query, 8)
            assert list(got) == list(expected)
            assert got.scores == expected.scores
            assert got.omega_served == expected.omega_served


# ----------------------------------------------------------------------
# Breaker: half-open concurrent probes + jittered re-open backoff
# ----------------------------------------------------------------------
class TestBreakerHalfOpenProbes:
    def _tripped(self, clock, **kwargs):
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=5.0, clock=lambda: clock[0], **kwargs
        )
        breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock[0] += 5.0
        return breaker

    def test_exactly_one_concurrent_trial_admitted(self):
        clock = [0.0]
        breaker = self._tripped(clock)
        admitted = []
        barrier = threading.Barrier(8)

        def probe():
            barrier.wait(5.0)
            admitted.append(breaker.allow())

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5.0)
        # One winner runs the trial; every loser gets the open-circuit
        # answer and the gateway serves it the degraded ranking instead.
        assert admitted.count(True) == 1
        assert admitted.count(False) == 7
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_probe_budget_admits_n_concurrent_trials(self):
        clock = [0.0]
        breaker = self._tripped(clock, half_open_probes=3, half_open_successes=3)
        assert [breaker.allow() for _ in range(5)] == [
            True, True, True, False, False,
        ]
        for _ in range(3):
            breaker.record_success()
        assert breaker.state == CLOSED

    def test_failed_trial_reopens_with_jittered_backoff(self):
        clock = [0.0]
        breaker = self._tripped(clock, reopen_jitter=0.5, seed=7)
        assert breaker.allow()  # the trial
        breaker.record_failure()
        assert breaker.state == OPEN
        import random

        expected = 5.0 * (1.0 + 0.5 * random.Random(7).random())
        assert breaker._current_cooldown == pytest.approx(expected)
        # The base cooldown alone no longer re-admits probes...
        clock[0] += 5.0
        assert not breaker.allow()
        # ...only the stretched one does.
        clock[0] = 5.0 + expected
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_closed_trip_resets_cooldown_to_base(self):
        clock = [0.0]
        breaker = self._tripped(clock, reopen_jitter=0.5, seed=7)
        assert breaker.allow()
        breaker.record_failure()  # jittered re-open
        stretched = breaker._current_cooldown
        clock[0] = 5.0 + stretched
        assert breaker.allow()
        breaker.record_success()  # closes
        assert breaker.state == CLOSED
        breaker.record_failure()  # fresh trip from CLOSED
        assert breaker.state == OPEN
        assert breaker._current_cooldown == 5.0

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker(reopen_jitter=-0.1)


# ----------------------------------------------------------------------
# Quarantine in front of POST /interaction
# ----------------------------------------------------------------------
HTTP_DEFENSE = DefenseConfig(
    quarantine=True, spam_window=300.0, spam_burst=2, spam_confirm=4, spam_clear=0
)


@pytest.fixture()
def qlive(workload, config):
    """A fresh small live index per test (quarantine tests mutate it)."""
    dataset = workload.dataset
    subset = sorted(dataset.records)[:16]
    live = LiveCommunityIndex(dataset.subset(subset), config)
    live.dataset.comments = list(dataset.comments)
    return live


def _qservice(live, tmp_path, name="interactions.wal"):
    return RecommendService(
        ServingGateway(live),
        InteractionLog(tmp_path / name),
        NetConfig(apply_every=1, defense=HTTP_DEFENSE),
    )


class TestInteractionQuarantine:
    def _post(self, service, user, video, interaction_id):
        doc = {"user_id": user, "video_id": video, "interaction_id": interaction_id}
        return service.handle(
            "POST", "/interaction", body=json.dumps(doc).encode("utf-8")
        )

    def _confirm_bot(self, service, videos):
        # 1st applies, 2nd+3rd are held, 4th confirms (all 200: the hold
        # is an internal diversion, not a client error).
        for i, video in enumerate(videos[:4]):
            status, _, _ = self._post(service, "bot", video, f"bot-{i}")
            assert status == 200

    def test_confirmed_spammer_gets_429_with_retry_hint(self, qlive, tmp_path):
        service = _qservice(qlive, tmp_path)
        videos = qlive.video_ids
        self._confirm_bot(service, videos)
        assert service.guard.state_of("bot") == "confirmed"
        status, extra, payload = self._post(service, "bot", videos[0], "bot-5")
        assert status == 429
        body = json.loads(payload.decode("utf-8"))
        assert body["error"]["kind"] == "spam_quarantined"
        assert body["error"]["retry_after_ms"] == pytest.approx(300_000.0)
        assert extra["Retry-After"] == "300"
        # The refused interaction never became durable.
        from repro.net import read_interactions

        ids = [r["interaction_id"] for r in read_interactions(service.interactions.path)]
        assert "bot-5" not in ids
        # Clean users are untouched.
        assert self._post(service, "alice", videos[0], "a-1")[0] == 200
        assert isinstance(SpamQuarantinedError("x"), Exception)

    def test_confirmation_revokes_applied_spam_from_the_index(self, qlive, tmp_path):
        service = _qservice(qlive, tmp_path)
        videos = qlive.video_ids
        self._confirm_bot(service, videos)
        # bot-0 applied when normal, then was revoked on confirmation;
        # the held bot-1/bot-2 were dropped — no trace anywhere.
        for video in videos[:4]:
            assert "bot" not in qlive.social_store.descriptors[video].users

    def test_restart_withholds_quarantined_interactions(self, qlive, tmp_path):
        service = _qservice(qlive, tmp_path, name="restart.wal")
        videos = qlive.video_ids
        self._confirm_bot(service, videos)
        self._post(service, "alice", videos[5], "a-1")
        service.flush()
        # A fresh process over the same logs: the clean interaction
        # replays, the withheld/confirmed spam stays out, and the
        # spammer's confirmed state survives.
        rebuilt = LiveCommunityIndex(
            qlive.dataset.subset(sorted(qlive.dataset.records)[:16]),
            qlive.config,
        )
        rebuilt.dataset.comments = list(qlive.dataset.comments)
        reborn = _qservice(rebuilt, tmp_path, name="restart.wal")
        assert "alice" in rebuilt.social_store.descriptors[videos[5]].users
        for video in videos[:4]:
            assert "bot" not in rebuilt.social_store.descriptors[video].users
        assert reborn.guard.state_of("bot") == "confirmed"
        assert self._post(reborn, "bot", videos[0], "bot-9")[0] == 429

    def test_defense_off_leaves_interactions_unguarded(self, qlive, tmp_path):
        service = RecommendService(
            ServingGateway(qlive),
            InteractionLog(tmp_path / "plain.wal"),
            NetConfig(apply_every=1),
        )
        for i in range(6):
            status, _, _ = self._post(service, "bot", qlive.video_ids[0], f"p-{i}")
            assert status == 200
        assert service.guard is None


# ----------------------------------------------------------------------
# Bounded interaction-dedupe window (adversarial memory pinning)
# ----------------------------------------------------------------------
class TestInteractionDedupeBound:
    def _append(self, log, interaction_id):
        return log.append(
            {
                "user_id": "u1",
                "video_id": "v1",
                "watched_percent": None,
                "liked": 0,
                "interaction_id": interaction_id,
            }
        )

    def test_memory_pinned_under_fresh_id_flood(self, tmp_path):
        # An adversary minting fresh ids must not grow the dedupe set
        # past its window (the log itself grows — that's disk, bounded
        # by rotation/ops — but resident memory is pinned).
        log = InteractionLog(tmp_path / "flood.wal", dedupe_capacity=3)
        for i in range(50):
            seq, duplicate = self._append(log, f"fresh-{i}")
            assert not duplicate
        assert len(log) == 3
        assert log.seq == 50

    def test_exactly_once_within_the_window(self, tmp_path):
        log = InteractionLog(tmp_path / "dedupe.wal", dedupe_capacity=3)
        seq, duplicate = self._append(log, "a")
        assert (seq, duplicate) == (1, False)
        seq, duplicate = self._append(log, "a")  # client retry
        assert duplicate and seq == 1
        from repro.net import read_interactions

        assert len(read_interactions(log.path)) == 1  # logged once

    def test_retry_refreshes_lru_position(self, tmp_path):
        log = InteractionLog(tmp_path / "lru.wal", dedupe_capacity=3)
        for interaction_id in ("a", "b", "c"):
            self._append(log, interaction_id)
        self._append(log, "a")  # retry mid-window: refresh, don't evict
        self._append(log, "d")  # evicts "b" (now the oldest), not "a"
        assert self._append(log, "a")[1] is True
        assert self._append(log, "b")[1] is False  # aged out: new again

    def test_restart_rebuild_is_bounded_too(self, tmp_path):
        path = tmp_path / "restart.wal"
        log = InteractionLog(path, dedupe_capacity=3)
        for i in range(10):
            self._append(log, f"id-{i}")
        log.flush_and_close()
        reopened = InteractionLog(path, dedupe_capacity=3)
        # The rebuild keeps only the most recent window of ids: recent
        # retries still dedupe, ancient ids read as new.
        assert len(reopened) == 3
        assert self._append(reopened, "id-9")[1] is True
        assert self._append(reopened, "id-0")[1] is False

    def test_capacity_validated(self, tmp_path):
        with pytest.raises(ValueError):
            InteractionLog(tmp_path / "bad.wal", dedupe_capacity=0)
