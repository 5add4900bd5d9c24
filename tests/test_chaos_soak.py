"""The chaos soak acceptance bar: concurrent serving is torn-read free.

One full seeded soak (4 writers x 16 readers, >= 10k served queries by
default; ``CHAOS_SOAK_QUERIES`` scales attempts) runs module-scoped, and
the tests assert its invariants: zero reader/writer exceptions, every
query bit-identical to a serial oracle over its pinned epoch, bounded
shed/degraded rates, epochs fully retired, and the breaker driven through
its whole trip -> open -> half-open -> close cycle by the fault schedule.

A second module-scoped soak runs the same pressure against the sharded
scatter-gather path (``shards=2``): skewed writer pools, one-shard fault
bursts rotating across the shard set, per-shard serial-oracle replay of
every scattered slice plus a deterministic re-merge of the served
ranking, and every shard's own breaker driven through its full cycle.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.defense import DefenseConfig
from repro.serving.breaker import CLOSED, HALF_OPEN, OPEN
from repro.testing.chaos import SoakConfig, SoakReport, _dump_artifact, run_soak

QUERIES = int(os.environ.get("CHAOS_SOAK_QUERIES", "12000"))


@pytest.fixture(scope="module")
def report():
    return run_soak(SoakConfig(queries=QUERIES, seed=2015))


class TestSoakInvariants:
    def test_scale_floor(self, report):
        # The acceptance floor: >= 4x16 for >= 10k served queries (scaled
        # runs via CHAOS_SOAK_QUERIES keep the proportion).
        assert report.queries_total >= min(10_000, int(QUERIES * 0.8))

    def test_zero_torn_reads_or_exceptions(self, report):
        assert report.reader_errors == []
        assert report.writer_errors == []

    def test_every_query_matches_serial_oracle(self, report):
        assert report.parity_checked == report.queries_total
        assert report.parity_failures == []
        assert report.ok

    def test_rates_bounded(self, report):
        # Admission is deliberately overloaded, so shedding happens — but
        # it must stay a minority, and most service stays full-fidelity.
        assert 0.0 < report.shed_rate < 0.5
        assert 0.0 < report.degraded_rate < 0.5

    def test_deadlines_produced_partials(self, report):
        assert report.queries_partial > 0

    def test_mutations_landed_and_epochs_drained(self, report):
        assert report.writer_ops == 4 * 25
        assert report.epochs_published == report.writer_ops + 1
        # Readers have drained: only the current epoch is still live.
        assert report.epochs_live == 1
        assert report.epochs_retired == report.epochs_published - 1

    def test_breaker_cycled_and_recovered(self, report):
        assert (CLOSED, OPEN) in report.breaker_transitions
        assert (OPEN, HALF_OPEN) in report.breaker_transitions
        assert (HALF_OPEN, CLOSED) in report.breaker_transitions
        # Disarmed faults + recovery probes leave the breaker closed.
        assert report.breaker_transitions[-1][1] == CLOSED

    def test_metrics_instrumented(self, report):
        counters = report.metrics["counters"]
        gauges = report.metrics["gauges"]
        assert counters["repro_serving_queries_total"] == report.queries_total
        assert sum(
            count
            for name, count in counters.items()
            if name.startswith("repro_serving_shed_total")
        ) == report.queries_shed
        assert counters["repro_serving_degraded_total"] == report.queries_degraded
        assert counters["repro_serving_deadline_miss_total"] == report.queries_partial
        assert counters["repro_serving_retries_total"] > 0
        assert "repro_serving_breaker_state" in gauges
        assert "repro_serving_epoch_age_seconds" in gauges
        assert "repro_serving_queue_depth" in gauges

    def test_latency_percentiles_reported(self, report):
        assert 0 < report.latencies_ms["p50"] <= report.latencies_ms["p99"]


@pytest.fixture(scope="module")
def sharded_report():
    return run_soak(SoakConfig(queries=QUERIES, seed=2015, shards=2))


class TestShardedSoakInvariants:
    SHARDS = 2

    def test_scale_floor(self, sharded_report):
        assert sharded_report.queries_total >= min(10_000, int(QUERIES * 0.8))

    def test_zero_torn_reads_or_exceptions(self, sharded_report):
        assert sharded_report.reader_errors == []
        assert sharded_report.writer_errors == []

    def test_every_query_replayed_or_memo_covered(self, sharded_report):
        # Every served query either replayed against per-shard oracles
        # (slices + deterministic merge) or was a clean memo hit whose
        # producing record replayed under the same epoch vector.
        assert (
            sharded_report.parity_checked + sharded_report.queries_memoized
            == sharded_report.queries_total
        )
        assert sharded_report.parity_checked > 0
        assert sharded_report.parity_failures == []
        assert sharded_report.ok

    def test_one_shard_bursts_degraded_but_did_not_stop_service(
        self, sharded_report
    ):
        # Rotating single-shard faults must show up as degraded merged
        # results (with the other shard still answering), never outages.
        assert sharded_report.queries_degraded > 0
        assert 0.0 < sharded_report.degraded_rate < 0.5

    def test_deadlines_produced_partials(self, sharded_report):
        assert sharded_report.queries_partial > 0

    def test_mutations_landed_and_epochs_drained(self, sharded_report):
        assert sharded_report.writer_ops == 4 * 25
        # Every mutation republishes all shards (plus each shard's
        # initial epoch); only the S current epochs stay live.
        assert sharded_report.epochs_published == self.SHARDS * (
            sharded_report.writer_ops + 1
        )
        assert sharded_report.epochs_live == self.SHARDS
        assert (
            sharded_report.epochs_retired
            == sharded_report.epochs_published - self.SHARDS
        )

    def test_writer_skew_still_populated_every_shard(self, sharded_report):
        assert len(sharded_report.shard_sizes) == self.SHARDS
        assert all(size > 0 for size in sharded_report.shard_sizes)

    def test_every_shards_breaker_cycled_and_recovered(self, sharded_report):
        assert len(sharded_report.shard_breaker_transitions) == self.SHARDS
        for transitions in sharded_report.shard_breaker_transitions:
            assert (CLOSED, OPEN) in transitions
            assert (OPEN, HALF_OPEN) in transitions
            assert (HALF_OPEN, CLOSED) in transitions
            assert transitions[-1][1] == CLOSED

    def test_sharded_metrics_instrumented(self, sharded_report):
        counters = sharded_report.metrics["counters"]
        gauges = sharded_report.metrics["gauges"]
        assert (
            counters["repro_sharded_queries_total"]
            == sharded_report.queries_total
        )
        assert (
            counters["repro_sharded_degraded_total"]
            == sharded_report.queries_degraded
        )
        assert (
            counters["repro_sharded_deadline_miss_total"]
            == sharded_report.queries_partial
        )
        assert (
            counters["repro_sharded_memo_hit_total"]
            == sharded_report.queries_memoized
        )
        for shard in range(self.SHARDS):
            assert f'repro_shard_epoch_id{{shard="{shard}"}}' in gauges
            assert f'repro_shard_videos{{shard="{shard}"}}' in gauges

    def test_latency_percentiles_reported(self, sharded_report):
        assert (
            0
            < sharded_report.latencies_ms["p50"]
            <= sharded_report.latencies_ms["p99"]
        )


class TestBreakerRecovery:
    def test_open_shard_breaker_recovers_behind_a_memoized_query(self):
        """A memoized scatter answer must not starve a shard's probe."""
        from repro.community import build_workload
        from repro.core import RecommenderConfig
        from repro.serving import GatewayConfig
        from repro.sharding import ShardedGateway, ShardedIndex
        from repro.testing.chaos import _recover_breakers

        now = [0.0]
        sharded = ShardedIndex.build(
            build_workload(hours=2.0, seed=9).dataset,
            RecommenderConfig(k=12),
            2,
            build_lsb=False,
        )
        gateway = ShardedGateway(
            sharded,
            config=GatewayConfig(default_deadline=None, breaker_cooldown=1.0),
            breaker_clock=lambda: now[0],
        )
        try:
            query = sharded.video_ids[0]
            gateway.recommend(query, 5)  # the probe query is now memoized
            breaker = gateway.gateways[1].breaker
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            assert breaker.state == OPEN
            now[0] += 2.0  # past the cooldown
            # The sharded gateway answers from its memo: no shard probed.
            gateway.recommend(query, 5)
            assert breaker.state == OPEN
            _recover_breakers(gateway.gateways, top_k=5, cooldown=0.0)
            assert [gw.breaker.state for gw in gateway.gateways] == [CLOSED] * 2
        finally:
            gateway.close()


@pytest.fixture(scope="module")
def sketch_report():
    # A smaller soak (same writer/reader/fault pressure) running both the
    # gateway under chaos and the serial oracle on the odd-sketch bank.
    return run_soak(
        SoakConfig(
            queries=max(1_000, QUERIES // 6), seed=2016, social_mode="sketch"
        )
    )


class TestSketchModeSoak:
    def test_zero_torn_reads_or_exceptions(self, sketch_report):
        assert sketch_report.reader_errors == []
        assert sketch_report.writer_errors == []

    def test_every_query_matches_serial_oracle(self, sketch_report):
        # Sketch banks are maintained incrementally under writer churn;
        # the oracle re-derives per pinned epoch — parity proves the
        # incremental toggles never diverged from a cold sketch.
        assert sketch_report.parity_checked == sketch_report.queries_total
        assert sketch_report.parity_failures == []
        assert sketch_report.ok

    def test_mutations_landed_and_epochs_drained(self, sketch_report):
        assert sketch_report.writer_ops == 4 * 25
        assert sketch_report.epochs_live == 1

    def test_sharded_sketch_soak_holds_parity(self):
        report = run_soak(
            SoakConfig(
                queries=max(1_000, QUERIES // 6),
                seed=2017,
                shards=2,
                social_mode="sketch",
            )
        )
        assert report.reader_errors == [] and report.writer_errors == []
        assert (
            report.parity_checked + report.queries_memoized
            == report.queries_total
        )
        assert report.parity_failures == []
        assert report.ok


def _adversarial_config(scenario, **overrides):
    """A small paced soak with the scenario's defense armed.

    Readers are paced so the attack window spans real wall time and the
    recovery tail is measurable even at smoke scale.
    """
    base = dict(
        queries=800,
        writers=2,
        readers=6,
        seed=2018,
        hours=2.0,
        base_videos=10,
        reader_pause=0.001,
        attack_start=0.25,
        attack_end=0.55,
        recovery_window=0.1,
        scenario=scenario,
    )
    base.update(overrides)
    return SoakConfig(**base)


class TestAdversarialScenarios:
    """Smoke-scale runs of the DESIGN §16 attack scenarios (the full
    pressure versions run in the adversarial bench / CI soak job)."""

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            SoakConfig(scenario="ddos")

    def test_attack_knobs_validated(self):
        with pytest.raises(ValueError):
            SoakConfig(scenario="flash_crowd", attack_start=0.8, attack_end=0.2)
        with pytest.raises(ValueError):
            SoakConfig(scenario="flash_crowd", attack_threads=0)

    def test_flash_crowd_coalesces_under_parity(self):
        report = run_soak(
            _adversarial_config(
                "flash_crowd",
                defense=DefenseConfig(coalesce=True, hot_priority=True),
                attack_threads=4,
                attack_ops=200,
            )
        )
        assert report.ok
        assert report.reader_errors == [] and report.attack_errors == []
        assert report.attack_ops_done > 0
        counters = report.metrics["counters"]
        # The crowd's identical misses collapsed into shared flights, and
        # every coalesced answer still matched the serial oracle.
        assert counters.get("repro_defense_coalesced_followers_total", 0) >= 1
        assert report.parity_failures == []
        assert report.attack_window is not None
        assert report.baseline_p99_ms is not None

    def test_spam_burst_quarantined_and_rankings_hold(self):
        report = run_soak(
            _adversarial_config(
                "spam_burst",
                defense=DefenseConfig(
                    quarantine=True,
                    spam_window=5.0,
                    spam_burst=8,
                    spam_confirm=24,
                    spam_clear=2,
                ),
                attack_threads=4,
                attack_ops=250,
                # Full-fidelity final recommends for the rank measurement.
                fault_burst_every=0.0,
            )
        )
        assert report.ok
        assert report.attack_errors == []
        assert report.attack_ops_done > 0
        assert report.quarantine["confirmed_users"] >= 1
        # The post-attack rankings overlap the clean pre-attack oracle:
        # hold/block/revoke left (nearly) no spam trace in the index.
        assert report.rank_correlation is not None
        assert report.rank_correlation >= 0.9

    def test_retire_storm_absorbed_by_the_governor(self):
        report = run_soak(
            _adversarial_config(
                "retire_storm",
                defense=DefenseConfig(min_publish_interval=0.05),
                attack_ops=40,
                attack_pause=0.002,
            )
        )
        assert report.ok
        assert report.attack_errors == []
        assert report.attack_ops_done > 0
        counters = report.metrics["counters"]
        # The storm's per-mutation publications collapsed into deferred
        # batches instead of epoch thrash.
        assert counters.get("repro_defense_deferred_publishes_total", 0) >= 1
        assert report.epochs_live == 1  # still drains to one live epoch


class TestArtifacts:
    def test_failing_run_dumps_replayable_schedule(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAOS_ARTIFACT_DIR", str(tmp_path))
        config = SoakConfig(queries=16, writers=1, readers=1, base_videos=8, hours=2.0)
        failing = SoakReport(config_seed=config.seed)
        failing.parity_failures.append({"query_id": "v0", "got": [], "expected": ["v1"]})
        path = _dump_artifact(config, failing)
        assert path is not None and os.path.exists(path)
        with open(path, encoding="utf-8") as handle:
            schedule = json.load(handle)
        assert schedule["config"]["seed"] == config.seed
        assert schedule["report"]["ok"] is False
        assert schedule["report"]["parity_failures"]

    def test_no_artifact_dir_is_a_noop(self, monkeypatch):
        monkeypatch.delenv("CHAOS_ARTIFACT_DIR", raising=False)
        assert _dump_artifact(SoakConfig(), SoakReport(config_seed=0)) is None
