"""HTTP front-end: routing, cache, rate limit, interactions, drain, chaos.

Most tests exercise :class:`RecommendService.handle` directly — the
transport-independent core — against a real live index; the deadline/
degraded status mappings use a stub gateway (a tiny index finishes its
scan before any real deadline can expire).  The final class goes through
real sockets: :class:`ReproHTTPServer` + :class:`RetryingClient`,
including fault injection, mid-response aborts and graceful drain.
"""

from __future__ import annotations

import json

import pytest

from repro.core import LiveCommunityIndex
from repro.errors import NetClientError, OverloadedError
from repro.net import (
    ChaosSchedule,
    InteractionLog,
    NetConfig,
    RecommendService,
    ReproHTTPServer,
    RetryingClient,
    RetryPolicy,
    TokenBucketLimiter,
    read_interactions,
)
from repro.net.server import NET_REQUEST_POINT, NET_RESPONSE_POINT
from repro.serving import ServingGateway
from repro.testing.faults import FaultPlan


@pytest.fixture(scope="module")
def live(workload, config):
    dataset = workload.dataset
    live = LiveCommunityIndex(dataset.subset(sorted(dataset.records)), config)
    live.dataset.comments = list(dataset.comments)
    return live


@pytest.fixture()
def service(live, tmp_path):
    gateway = ServingGateway(live)
    return RecommendService(
        gateway, InteractionLog(tmp_path / "interactions.wal")
    )


def body_of(payload: bytes) -> dict:
    return json.loads(payload.decode("utf-8"))


def make_service(live, tmp_path, config=None, clock=None, name="log.wal"):
    kwargs = {} if clock is None else {"clock": clock}
    return RecommendService(
        ServingGateway(live),
        InteractionLog(tmp_path / name),
        config,
        **kwargs,
    )


class TestRouting:
    def test_healthz_always_200(self, service):
        status, _, payload = service.handle("GET", "/healthz")
        assert status == 200
        assert body_of(payload) == {"status": "ok"}
        service.begin_drain()
        assert service.handle("GET", "/healthz")[0] == 200

    def test_readyz_reports_epoch_and_goes_red_on_drain(self, service):
        status, _, payload = service.handle("GET", "/readyz")
        assert status == 200
        body = body_of(payload)
        assert body["status"] == "ready"
        assert body["applied_seq"] == 0
        service.begin_drain()
        status, _, payload = service.handle("GET", "/readyz")
        assert status == 503
        assert body_of(payload)["status"] == "draining"

    def test_recommend_happy_path(self, service, live):
        video = live.video_ids[0]
        status, extra, payload = service.handle(
            "GET", f"/recommend/{video}", {"top_k": "5"}
        )
        assert status == 200
        assert extra["X-Cache"] == "miss"
        body = body_of(payload)
        assert body["query"] == video
        assert 0 < len(body["recommendations"]) <= 5
        assert all(
            set(r) == {"videoId", "score"} for r in body["recommendations"]
        )
        assert body["degraded"] is False and body["partial"] is False

    def test_unknown_video_404(self, service):
        status, _, payload = service.handle("GET", "/recommend/nope")
        assert status == 404
        assert body_of(payload)["error"]["kind"] == "not_found"

    def test_unknown_route_404(self, service):
        assert service.handle("GET", "/wat")[0] == 404

    def test_wrong_method_405(self, service, live):
        video = live.video_ids[0]
        assert service.handle("POST", f"/recommend/{video}")[0] == 405
        assert service.handle("GET", "/interaction")[0] == 405

    def test_bad_top_k_400(self, service, live):
        video = live.video_ids[0]
        status, _, payload = service.handle(
            "GET", f"/recommend/{video}", {"top_k": "0"}
        )
        assert status == 400
        assert body_of(payload)["error"]["kind"] == "bad_request"
        assert service.handle(
            "GET", f"/recommend/{video}", {"top_k": "2000"}
        )[0] == 400

    def test_bad_deadline_header_400(self, service, live):
        video = live.video_ids[0]
        for bad in ("abc", "-5", "0"):
            status, _, _ = service.handle(
                "GET", f"/recommend/{video}", {}, {"X-Deadline-Ms": bad}
            )
            assert status == 400

    def test_drain_rejects_new_work_with_503(self, service, live):
        service.begin_drain()
        video = live.video_ids[0]
        status, _, payload = service.handle("GET", f"/recommend/{video}")
        assert status == 503
        assert body_of(payload)["error"]["kind"] == "draining"
        status, _, _ = service.handle("POST", "/interaction", body=b"{}")
        assert status == 503

    def test_videos_listing_with_limit(self, service, live):
        status, _, payload = service.handle("GET", "/videos", {"limit": "3"})
        assert status == 200
        body = body_of(payload)
        assert body["count"] == len(live.video_ids)
        assert len(body["videos"]) == 3

    def test_stats_json_and_prometheus(self, service):
        status, _, payload = service.handle("GET", "/stats")
        assert status == 200
        assert "counters" in body_of(payload)
        status, extra, payload = service.handle(
            "GET", "/stats", {"format": "prom"}
        )
        assert status == 200
        assert extra["Content-Type"].startswith("text/plain")
        assert b"# TYPE" in payload


class TestResponseCache:
    def test_hit_is_bit_identical(self, service, live):
        video = live.video_ids[0]
        _, extra1, payload1 = service.handle("GET", f"/recommend/{video}")
        _, extra2, payload2 = service.handle("GET", f"/recommend/{video}")
        assert extra1["X-Cache"] == "miss"
        assert extra2["X-Cache"] == "hit"
        assert payload1 == payload2

    def test_epoch_publication_invalidates(self, live, tmp_path):
        service = make_service(live, tmp_path, NetConfig(apply_every=1))
        video = live.video_ids[0]
        service.handle("GET", f"/recommend/{video}")
        assert service.handle("GET", f"/recommend/{video}")[1]["X-Cache"] == "hit"
        doc = {"user_id": "u-cache", "video_id": video, "interaction_id": "i-1"}
        status, _, payload = service.handle(
            "POST", "/interaction", body=json.dumps(doc).encode()
        )
        assert status == 200
        assert body_of(payload)["applied_seq"] == 1
        # New epoch: the cached generation is gone, and the fresh body
        # advertises the new applied_seq.
        _, extra, payload = service.handle("GET", f"/recommend/{video}")
        assert extra["X-Cache"] == "miss"
        assert body_of(payload)["applied_seq"] == 1
        assert service.cache.invalidations > 0

    def test_different_top_k_miss_separately(self, service, live):
        video = live.video_ids[0]
        service.handle("GET", f"/recommend/{video}", {"top_k": "3"})
        _, extra, _ = service.handle("GET", f"/recommend/{video}", {"top_k": "4"})
        assert extra["X-Cache"] == "miss"


class TestRateLimit:
    def test_bucket_enforced_with_hint(self, live, tmp_path):
        now = [100.0]
        service = make_service(
            live,
            tmp_path,
            NetConfig(rate_limit=10.0, rate_burst=2),
            clock=lambda: now[0],
        )
        video = live.video_ids[0]
        assert service.handle("GET", f"/recommend/{video}", client="c1")[0] == 200
        assert service.handle("GET", f"/recommend/{video}", client="c1")[0] == 200
        status, extra, payload = service.handle(
            "GET", f"/recommend/{video}", client="c1"
        )
        assert status == 429
        body = body_of(payload)
        assert body["error"]["kind"] == "rate_limited"
        assert body["error"]["retry_after_ms"] == pytest.approx(100.0)
        assert extra["Retry-After"] == "1"
        assert extra["X-Retry-After-Ms"] == "100"
        # Other clients are unaffected; time refills the bucket.
        assert service.handle("GET", f"/recommend/{video}", client="c2")[0] == 200
        now[0] += 0.2
        assert service.handle("GET", f"/recommend/{video}", client="c1")[0] == 200

    def test_limiter_unit_refill_and_eviction(self):
        now = [0.0]
        limiter = TokenBucketLimiter(2.0, burst=1, max_keys=2, clock=lambda: now[0])
        assert limiter.check("a") is None
        hint = limiter.check("a")
        assert hint == pytest.approx(500.0)
        now[0] += 0.5
        assert limiter.check("a") is None
        # LRU eviction bounds adversarial key minting.
        limiter.check("b")
        limiter.check("c")
        assert len(limiter._buckets) == 2


class TestInteractions:
    def _post(self, service, doc):
        return service.handle(
            "POST", "/interaction", body=json.dumps(doc).encode("utf-8")
        )

    def test_logged_durably_with_ack(self, service, live):
        video = live.video_ids[0]
        status, _, payload = self._post(
            service,
            {"user_id": "u1", "video_id": video, "interaction_id": "i-1",
             "watched_percent": 80, "liked": 1},
        )
        assert status == 200
        body = body_of(payload)
        assert body == {
            "status": "logged",
            "interaction_id": "i-1",
            "seq": 1,
            "duplicate": False,
            "applied_seq": 0,
        }
        records = read_interactions(service.interactions.path)
        assert [r["interaction_id"] for r in records] == ["i-1"]

    def test_duplicate_id_acked_without_relogging(self, service, live):
        video = live.video_ids[0]
        doc = {"user_id": "u1", "video_id": video, "interaction_id": "i-dup"}
        assert self._post(service, doc)[0] == 200
        status, _, payload = self._post(service, doc)
        assert status == 200
        assert body_of(payload)["duplicate"] is True
        assert len(read_interactions(service.interactions.path)) == 1

    def test_validation_errors_400(self, service, live):
        video = live.video_ids[0]
        cases = [
            {},  # missing both ids
            {"user_id": "u1"},
            {"user_id": "u1", "video_id": video, "liked": 7},
            {"user_id": "u1", "video_id": video, "watched_percent": 150},
            {"user_id": "u1", "video_id": video, "surprise": 1},
        ]
        for doc in cases:
            assert self._post(service, doc)[0] == 400, doc

    def test_malformed_json_400(self, service):
        status, _, payload = service.handle(
            "POST", "/interaction", body=b"{not json"
        )
        assert status == 400
        assert body_of(payload)["error"]["kind"] == "bad_request"

    def test_unknown_video_404(self, service):
        assert self._post(
            service, {"user_id": "u1", "video_id": "ghost"}
        )[0] == 404

    def test_oversized_body_413(self, live, tmp_path):
        service = make_service(live, tmp_path, NetConfig(max_body_bytes=64))
        status, _, payload = service.handle(
            "POST", "/interaction", body=b"x" * 65
        )
        assert status == 413
        assert body_of(payload)["error"]["kind"] == "too_large"

    def test_apply_every_folds_batches(self, live, tmp_path):
        service = make_service(live, tmp_path, NetConfig(apply_every=2))
        video = live.video_ids[0]
        epoch_before = service._current_epoch_key()
        self._post(service, {"user_id": "u1", "video_id": video, "interaction_id": "a"})
        assert service.applied_seq == 0  # batch not full yet
        self._post(service, {"user_id": "u2", "video_id": video, "interaction_id": "b"})
        assert service.applied_seq == 2
        assert service._current_epoch_key() != epoch_before

    def test_restart_replays_log(self, live, tmp_path):
        service = make_service(live, tmp_path, NetConfig(apply_every=1), name="r.wal")
        video = live.video_ids[0]
        self._post(service, {"user_id": "u1", "video_id": video, "interaction_id": "x"})
        assert service.applied_seq == 1
        service.flush()
        reborn = make_service(live, tmp_path, name="r.wal")
        assert reborn.applied_seq == 1
        status, _, payload = reborn.handle("GET", "/readyz")
        assert body_of(payload)["applied_seq"] == 1


class _StubResult(list):
    def __init__(self, ids, **attrs):
        super().__init__(ids)
        defaults = {
            "scores": [1.0] * len(ids),
            "epoch_id": 0,
            "epoch_key": 0,
            "omega_served": 0.7,
            "degraded": False,
            "partial": False,
            "reasons": (),
            "scored": len(ids),
            "total": len(ids),
        }
        defaults.update(attrs)
        for name, value in defaults.items():
            setattr(self, name, value)


class _StubGateway:
    """Serves canned results; lets tests force partial/degraded/errors."""

    def __init__(self, result=None, error=None):
        self.result = result
        self.error = error

        class _Epoch:
            epoch_id = 0
            series = {"v1": None, "v2": None}
            video_ids = ["v1", "v2"]

        self.current_epoch = _Epoch()
        self.epoch_key = 0
        self.video_ids = _Epoch.video_ids

    def has_video(self, video_id):
        return video_id in self.current_epoch.series

    def recommend(self, video_id, top_k, deadline=None):
        if self.error is not None:
            raise self.error
        return self.result

    def apply_comments(self, pairs):
        pass


def stub_service(tmp_path, **stub_kwargs):
    return RecommendService(
        _StubGateway(**stub_kwargs), InteractionLog(tmp_path / "stub.wal")
    )


class TestStatusMapping:
    def test_expired_deadline_is_504_with_partial_body(self, tmp_path):
        result = _StubResult(["v2"], partial=True, reasons=("deadline",))
        service = stub_service(tmp_path, result=result)
        status, extra, payload = service.handle(
            "GET", "/recommend/v1", {}, {"X-Deadline-Ms": "5"}
        )
        assert status == 504
        body = body_of(payload)
        assert body["partial"] is True
        assert body["recommendations"] == [{"videoId": "v2", "score": 1.0}]
        # Partial rankings are never cached: the next request rescans.
        assert service.handle(
            "GET", "/recommend/v1", {}, {"X-Deadline-Ms": "5"}
        )[1]["X-Cache"] == "miss"

    def test_degraded_stays_200_flagged_and_uncached(self, tmp_path):
        result = _StubResult(["v2"], degraded=True, reasons=("breaker_open",))
        service = stub_service(tmp_path, result=result)
        status, extra, payload = service.handle("GET", "/recommend/v1")
        assert status == 200
        body = body_of(payload)
        assert body["degraded"] is True
        assert body["reasons"] == ["breaker_open"]
        assert service.handle("GET", "/recommend/v1")[1]["X-Cache"] == "miss"

    def test_overload_is_429_with_retry_after(self, tmp_path):
        service = stub_service(
            tmp_path, error=OverloadedError("full", retry_after_ms=75.0)
        )
        status, extra, payload = service.handle("GET", "/recommend/v1")
        assert status == 429
        assert body_of(payload)["error"]["kind"] == "overloaded"
        assert extra["X-Retry-After-Ms"] == "75"

    def test_unexpected_exception_is_500_without_traceback(self, tmp_path):
        service = stub_service(tmp_path, error=RuntimeError("kaboom"))
        status, _, payload = service.handle("GET", "/recommend/v1")
        assert status == 500
        body = body_of(payload)
        assert body["error"]["kind"] == "internal"
        assert "Traceback" not in payload.decode("utf-8")


class TestOverSockets:
    @pytest.fixture()
    def server(self, service):
        with ReproHTTPServer(service) as server:
            yield server

    def test_end_to_end_recommend_and_cache(self, server, live):
        client = RetryingClient(server.url)
        video = live.video_ids[0]
        first = client.recommend(video, top_k=5)
        second = client.recommend(video, top_k=5)
        assert first.status == 200 and second.status == 200
        assert first.header("X-Cache") == "miss"
        assert second.header("X-Cache") == "hit"
        assert first.body == second.body

    def test_interaction_round_trip(self, server, live):
        client = RetryingClient(server.url)
        video = live.video_ids[0]
        response = client.interaction("u-sock", video, watched_percent=50, liked=1)
        assert response.status == 200
        assert response.json()["duplicate"] is False

    def test_oversized_body_refused_without_reading(self, service, live):
        with ReproHTTPServer(service) as server:
            client = RetryingClient(server.url)
            huge = b"x" * (service.config.max_body_bytes + 1)
            response = client.request("POST", "/interaction", body=huge)
            assert response.status == 413

    def test_fault_injection_503_then_recovers(self, live, tmp_path):
        faults = FaultPlan(fail_at={NET_REQUEST_POINT: 1})
        service = make_service(live, tmp_path)
        with ReproHTTPServer(service, faults=faults) as server:
            client = RetryingClient(
                server.url, RetryPolicy(attempts=3, backoff=0.01)
            )
            response = client.recommend(live.video_ids[0])
            # The injected 503 was retried away; the payload is intact.
            assert response.status == 200
            assert client.stats["retries"] == 1

    def test_response_point_fault_torn_read_retried(self, live, tmp_path):
        # A fault at the response point aborts the write mid-body: the
        # client sees a torn read, and — the request being idempotent —
        # retries it to a clean 200.
        faults = FaultPlan(fail_at={NET_RESPONSE_POINT: 1})
        service = make_service(live, tmp_path)
        with ReproHTTPServer(service, faults=faults) as server:
            client = RetryingClient(
                server.url, RetryPolicy(attempts=3, backoff=0.01)
            )
            response = client.recommend(live.video_ids[0])
            assert response.status == 200
            assert client.stats["retries"] == 1

    def test_mid_response_abort_retried_by_client(self, live, tmp_path):
        service = make_service(live, tmp_path)
        chaos = ChaosSchedule(abort_every=2)
        with ReproHTTPServer(service, chaos=chaos) as server:
            client = RetryingClient(
                server.url, RetryPolicy(attempts=4, backoff=0.01)
            )
            video = live.video_ids[0]
            for _ in range(4):
                assert client.recommend(video).status == 200
            assert client.stats["retries"] >= 1

    def test_abort_during_interaction_deduped_on_retry(self, live, tmp_path):
        service = make_service(live, tmp_path)
        chaos = ChaosSchedule(abort_every=1)  # every response dies mid-write
        with ReproHTTPServer(service, chaos=chaos) as server:
            client = RetryingClient(
                server.url, RetryPolicy(attempts=4, backoff=0.01)
            )
            with pytest.raises(NetClientError):
                client.interaction("u-abort", live.video_ids[0])
        # Every retry carried the same interaction_id: logged exactly once.
        records = read_interactions(service.interactions.path)
        assert len(records) == 1

    def test_graceful_drain_finishes_and_flushes(self, live, tmp_path):
        service = make_service(live, tmp_path)
        server = ReproHTTPServer(service).start()
        client = RetryingClient(server.url)
        video = live.video_ids[0]
        assert client.recommend(video).status == 200
        assert client.readyz().status == 200
        leftover = server.drain(timeout=2.0)
        assert leftover == 0
        assert service.draining
        # The listener is down: a fresh connection is refused.
        probe = RetryingClient(server.url, RetryPolicy(attempts=1, timeout=0.5))
        with pytest.raises(NetClientError):
            probe.healthz()


class TestLimiterEvictionCarryOver:
    """LRU eviction must not mint fresh bursts for churned identities.

    Pre-fix, a key admitted while the table was full evicted the LRU
    victim and started with a **full** bucket — an adversary cycling
    through ``max_keys + 1`` ids inherited ``burst`` free requests per
    rotation.  Post-fix the newcomer inherits the victim's refilled
    balance, so churn keeps re-inheriting its own drained bucket while a
    long-idle victim's bucket has refilled to (near) full anyway.
    """

    def _limiter(self, now, **kwargs):
        defaults = dict(rate=1.0, burst=5, max_keys=1, clock=lambda: now[0])
        defaults.update(kwargs)
        return TokenBucketLimiter(**defaults)

    def test_churned_key_inherits_drained_bucket(self):
        now = [0.0]
        limiter = self._limiter(now)
        for _ in range(5):
            assert limiter.check("attacker-1") is None
        assert limiter.check("attacker-1") is not None  # drained
        # Rotate identity immediately: same host, fresh key.  Pre-fix
        # this admitted 5 more requests; post-fix the drained balance
        # carries over and the very first request is rejected.
        assert limiter.check("attacker-2") is not None

    def test_rotation_cannot_outrun_refill_rate(self):
        now = [0.0]
        limiter = self._limiter(now)
        admitted = 0
        for step in range(30):
            now[0] = step * 0.5  # 2 rotations/second, refill 1 token/s
            if limiter.check(f"rotating-{step}") is None:
                admitted += 1
        # 14.5 seconds at 1 token/s + the initial burst of 5; pre-fix
        # every rotation was admitted (30).
        assert admitted <= 5 + 15

    def test_idle_victim_readmitted_with_refilled_bucket(self):
        now = [0.0]
        limiter = self._limiter(now)
        for _ in range(5):
            limiter.check("old")
        # Long idle: the evicted bucket would have refilled to burst.
        now[0] = 60.0
        assert limiter.check("new") is None

    def test_carry_over_hint_math_pinned(self):
        now = [0.0]
        limiter = self._limiter(now, rate=2.0)
        for _ in range(5):
            limiter.check("a")
        hint = limiter.check("b")
        # Inherited balance 0.0 -> hint = 1000 * (1 - 0) / rate.
        assert hint == pytest.approx(1000.0 * (1.0 - 0.0) / 2.0)

    def test_below_capacity_keys_still_get_full_burst(self):
        now = [0.0]
        limiter = self._limiter(now, max_keys=4)
        for _ in range(5):
            limiter.check("a")
        for _ in range(5):
            assert limiter.check("b") is None


class TestCacheStaleEpochRejection:
    """A racing put/get carrying a superseded epoch key must never roll
    the generation backward and serve pre-publication bytes.

    Pre-fix, ``_roll_generation`` treated *any* key change as a new
    epoch: a slow thread that read the epoch key before a publication
    could ``put`` under the old key after a fresh thread had rolled
    forward — clearing the fresh generation, adopting the stale key, and
    serving the stale body to the next ``get`` under that key.
    """

    def _entry(self, body=b"{}"):
        return (200, {"Content-Type": "application/json"}, body)

    def test_stale_put_cannot_evict_fresh_generation(self):
        from repro.net.cache import ResponseCache

        cache = ResponseCache()
        cache.put((1, 0), "req", *self._entry(b"fresh"))
        # A thread that raced publication writes under the older key.
        cache.put((0, 0), "req", *self._entry(b"stale"))
        assert cache.get((0, 0), "req") is None  # stale get: miss
        hit = cache.get((1, 0), "req")
        assert hit is not None and hit[2] == b"fresh"
        assert cache.stale_rejections == 2

    def test_stale_int_epoch_rejected(self):
        from repro.net.cache import ResponseCache

        cache = ResponseCache()
        cache.put(5, "req", *self._entry(b"new"))
        cache.put(4, "req", *self._entry(b"old"))
        assert cache.get(5, "req")[2] == b"new"
        assert cache.get(4, "req") is None
        assert cache.stale_rejections == 2

    def test_componentwise_tuple_ordering(self):
        from repro.net.cache import ResponseCache

        cache = ResponseCache()
        cache.put((2, 3), "req", *self._entry())
        # Older in one component, equal in the other: stale.
        assert cache.get((2, 2), "req") is None
        assert cache.stale_rejections == 1
        # Mixed (one ahead, one behind) cannot come from monotonic
        # publication: treated as a new generation (safe roll).
        assert cache.get((1, 4), "req") is None
        assert cache.stale_rejections == 1
        assert len(cache) == 0  # rolled and cleared

    def test_forward_roll_still_invalidates(self):
        from repro.net.cache import ResponseCache

        cache = ResponseCache()
        cache.put((1, 1), "req", *self._entry())
        cache.put((1, 2), "req", *self._entry(b"next"))
        assert cache.invalidations == 1
        assert cache.get((1, 2), "req")[2] == b"next"

    def test_topology_change_rolls_safely(self):
        from repro.net.cache import ResponseCache

        cache = ResponseCache()
        cache.put((1, 1), "req", *self._entry())
        # Shard count changed: key shape differs, roll and clear.
        cache.put((2, 2, 0), "req", *self._entry(b"resharded"))
        assert cache.get((2, 2, 0), "req")[2] == b"resharded"
        assert cache.stale_rejections == 0

    def test_stale_gauge_exported(self, live, tmp_path):
        from repro.obs.metrics import MetricsRegistry, use_metrics

        registry = MetricsRegistry()
        with use_metrics(registry):
            service = make_service(live, tmp_path, NetConfig())
            video = live.video_ids[0]
            service.handle("GET", f"/recommend/{video}")
        assert registry.snapshot()["gauges"]["repro_http_cache_stale_total"] == 0.0
