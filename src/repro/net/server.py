"""The HTTP serving front-end: stdlib server over the serving gateway.

Two layers, split so the wire behaviour is testable without sockets:

* :class:`RecommendService` — the transport-independent core.  It owns
  routing, parameter/body validation, the per-client token-bucket
  limiter, the epoch-keyed response cache, durable interaction logging
  with ``applied_seq`` bookkeeping, and the drain flag.  ``handle()``
  maps *any* raised exception through the protocol's status table — a
  response never carries a raw traceback.
* :class:`ReproHTTPServer` — a ``ThreadingHTTPServer`` wrapper that
  feeds requests into the service, tracks in-flight requests for
  graceful drain, and hosts the **network fault scope**: the registered
  ``net.request`` / ``net.response`` crash points (FaultPlan-armable in
  process) and the deterministic :class:`ChaosSchedule` the multi-process
  netchaos soak drives via ``repro serve --chaos-*`` (slow-request
  injection and mid-response connection aborts — the response is
  truncated against its own ``Content-Length`` and the socket closed, so
  clients exercise their short-read handling).

Deadline → status contract (DESIGN §14): a request's ``X-Deadline-Ms``
threads into the gateway's chunked scan; an expired deadline comes back
as **504 with the best-effort partial ranking in the body**, so a 200 is
always a *complete* ranking on its pinned epoch — the invariant the
netchaos oracle replays bit for bit.  Breaker-degraded (content-only)
rankings stay 200 with ``degraded: true``: the ranking is valid, just
social-blind.

``applied_seq`` pins the index state behind a response: the number of
interaction-log records folded into the serving index (epoch ids reset
across restarts; the log-derived count does not).  The service keeps a
small epoch-key → applied_seq map updated at every apply, so a response
reports the count *its* pinned epoch was built from even while an apply
races it.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.defense.config import DefenseConfig
from repro.defense.quarantine import SpamGuard, replay_quarantine
from repro.errors import RateLimitedError, SpamQuarantinedError
from repro.net.cache import ResponseCache
from repro.net.interactions import (
    InteractionLog,
    interaction_pairs,
    read_interactions,
    validate_interaction,
)
from repro.net.protocol import (
    HEADER_CACHE,
    HEADER_CLIENT_ID,
    HEADER_DEADLINE_MS,
    dump_body,
    error_envelope,
    map_exception,
    recommendation_body,
)
from repro.net.ratelimit import TokenBucketLimiter
from repro.obs import get_metrics
from repro.testing.faults import (
    InjectedCrashError,
    InjectedFaultError,
    register_crash_point,
)

__all__ = [
    "ChaosSchedule",
    "NET_REQUEST_POINT",
    "NET_RESPONSE_POINT",
    "NetConfig",
    "RecommendService",
    "ReproHTTPServer",
]

#: Fired when a request arrives, before it is dispatched.  ``slow_at``
#: models a saturated accept path; ``fail_at`` a front-end hiccup (the
#: request is answered 503, never half-processed).
NET_REQUEST_POINT = register_crash_point(
    "net.request",
    "http front-end: request received, before dispatch (slow/fail injectable)",
)
#: Fired after the response is computed, before its body is written.
#: ``abort_at`` models a connection dying mid-response: the client gets
#: headers plus a truncated body, then a closed socket.
NET_RESPONSE_POINT = register_crash_point(
    "net.response",
    "http front-end: response computed, before the body write (abort = "
    "mid-response connection loss)",
)


@dataclass(frozen=True)
class NetConfig:
    """Serving knobs of the HTTP front-end.

    Attributes
    ----------
    default_deadline_ms:
        Deadline applied to requests that send no ``X-Deadline-Ms``
        (``None`` = unlimited scan).
    rate_limit / rate_burst:
        Per-client token bucket: sustained requests/second and burst
        capacity (``rate_limit <= 0`` disables limiting).
    drain_timeout:
        Seconds :meth:`ReproHTTPServer.drain` waits for in-flight
        requests before shutting the listener down anyway.
    cache_capacity:
        Entries of the epoch-keyed response cache (0 disables).
    max_body_bytes:
        Largest accepted request body; beyond it the request is refused
        with 413 without reading the payload.
    apply_every:
        Fold logged interactions into the serving index (one
        ``apply_comments`` batch + epoch publication) every N records
        (0 = log only; a restart still applies the whole log).
    defense:
        Optional :class:`~repro.defense.config.DefenseConfig`.  When its
        ``quarantine`` knob is on, a :class:`~repro.defense.quarantine.
        SpamGuard` screens every apply batch: burst-anomalous users'
        comments divert into a quarantine WAL (``<interactions
        path>.quarantine``) instead of the social state, and a POST from
        an already-*confirmed* spammer is refused with 429 before it is
        even logged.  ``None`` (the default) keeps the pre-defense
        behaviour bit for bit.
    """

    default_deadline_ms: float | None = None
    rate_limit: float = 0.0
    rate_burst: int = 20
    drain_timeout: float = 5.0
    cache_capacity: int = 1024
    max_body_bytes: int = 64 * 1024
    apply_every: int = 0
    defense: DefenseConfig | None = None

    def __post_init__(self) -> None:
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError(
                f"default_deadline_ms must be > 0, got {self.default_deadline_ms}"
            )
        if self.drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {self.drain_timeout}")
        if self.max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {self.max_body_bytes}")
        if self.apply_every < 0:
            raise ValueError(f"apply_every must be >= 0, got {self.apply_every}")


@dataclass
class ChaosSchedule:
    """Deterministic request-counter chaos: every Nth request misbehaves.

    ``slow_every`` sleeps ``slow_seconds`` before dispatch (a saturated
    server); ``abort_every`` truncates the response body mid-write and
    closes the socket (a dying connection).  Counter-based, so two runs
    with the same request interleaving inject at the same requests — and
    the *rate* is exact regardless of timing.
    """

    slow_every: int = 0
    slow_seconds: float = 0.02
    abort_every: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._count = 0

    @property
    def active(self) -> bool:
        return self.slow_every > 0 or self.abort_every > 0

    def next(self) -> tuple[bool, bool]:
        """``(slow, abort)`` verdict for the next request."""
        with self._lock:
            self._count += 1
            n = self._count
        slow = self.slow_every > 0 and n % self.slow_every == 0
        abort = self.abort_every > 0 and n % self.abort_every == 0
        return slow, abort


def _membership_probe(gateway):
    """A ``(user, video) -> already-a-member?`` probe over *gateway*.

    The spam guard uses it to avoid recording no-op applications as
    revocable: un-applying a comment whose user was already in the
    video's descriptor would remove a membership the spammer never
    added.  Advisory — a stale read only widens or
    narrows the revocation set, never corrupts state.
    """
    index = getattr(gateway, "_master", None)
    if index is None:
        return None
    store = index.social_store

    def probe(user: str, video: str) -> bool:
        descriptor = store.descriptors.get(video)
        return descriptor is not None and user in descriptor.users

    return probe


def _header(headers, name: str):
    """Case-tolerant header lookup (email.Message or a plain dict)."""
    value = headers.get(name)
    if value is None and hasattr(headers, "items"):
        wanted = name.lower()
        for key, candidate in headers.items():
            if str(key).lower() == wanted:
                return candidate
    return value


class RecommendService:
    """Transport-independent request handling over a serving gateway.

    *gateway* is a :class:`~repro.serving.gateway.ServingGateway` or
    :class:`~repro.sharding.gateway.ShardedGateway` (duck-typed: both
    expose ``recommend`` / ``apply_comments``, ``video_ids`` /
    ``has_video`` and an epoch identity).
    *interactions* is the durable log; any records already on disk are
    replayed into the gateway **before** serving starts, so a restarted
    server's rankings reflect every interaction it ever acknowledged.
    """

    def __init__(
        self,
        gateway,
        interactions: InteractionLog,
        config: NetConfig | None = None,
        algorithm: str = "csf-sar-h",
        clock=time.monotonic,
    ) -> None:
        self.gateway = gateway
        self.interactions = interactions
        self.config = config or NetConfig()
        self.algorithm = algorithm
        self.limiter = TokenBucketLimiter(
            self.config.rate_limit, self.config.rate_burst, clock=clock
        )
        self.cache = ResponseCache(self.config.cache_capacity)
        self._draining = threading.Event()
        self._apply_lock = threading.Lock()
        self._pending: list[dict] = []
        self._seq_by_epoch: OrderedDict = OrderedDict()
        defense = self.config.defense
        self.guard: SpamGuard | None = None
        withheld: set[int] = set()
        revoke_pairs: list[tuple[str, str]] = []
        if defense is not None and defense.quarantine:
            quarantine_path = interactions.path.with_name(
                interactions.path.name + ".quarantine"
            )
            # The replay scan runs before the guard opens the log so the
            # restart withholds exactly what the previous run withheld.
            qreplay = replay_quarantine(quarantine_path)
            withheld = qreplay.withheld_refs
            revoke_pairs = qreplay.revoke_pairs
            self.guard = SpamGuard(
                defense,
                wal_path=quarantine_path,
                membership=_membership_probe(gateway),
            )
        replayed = read_interactions(interactions.path)
        to_apply = [r for r in replayed if r["seq"] not in withheld]
        if to_apply:
            # One exact-mode batch; batch-split invariance makes this
            # bit-identical to the incremental applies of the previous
            # run, whatever its apply_every cadence was.
            gateway.apply_comments(interaction_pairs(to_apply))
        if revoke_pairs:
            # Confirmed revocations re-apply after the interaction replay,
            # matching the live ordering (applied first, revoked later).
            gateway.remove_comments(revoke_pairs)
        self._applied_seq = len(replayed)
        self._record_epoch_seq()

    # ------------------------------------------------------------------
    # Epoch / applied_seq bookkeeping
    # ------------------------------------------------------------------
    def _current_epoch_key(self):
        return self.gateway.epoch_key

    def _record_epoch_seq(self) -> None:
        key = self._current_epoch_key()
        self._seq_by_epoch[key] = self._applied_seq
        while len(self._seq_by_epoch) > 64:
            self._seq_by_epoch.popitem(last=False)

    def _applied_for(self, epoch_key) -> int:
        seq = self._seq_by_epoch.get(epoch_key)
        if seq is None:
            # The query pinned an epoch a racing apply published before
            # recording its seq; the lock orders us after that update.
            with self._apply_lock:
                seq = self._seq_by_epoch.get(epoch_key, self._applied_seq)
        return seq

    @property
    def applied_seq(self) -> int:
        """Interaction-log records folded into the serving index so far."""
        return self._applied_seq

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def begin_drain(self) -> None:
        """Refuse new work (503, readyz red); in-flight requests finish."""
        self._draining.set()
        get_metrics().set_gauge("repro_http_draining", 1)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    @staticmethod
    def _route_label(path: str) -> str:
        if path.startswith("/recommend/"):
            return "recommend"
        return {
            "/interaction": "interaction",
            "/healthz": "healthz",
            "/readyz": "readyz",
            "/stats": "stats",
            "/videos": "videos",
        }.get(path, "other")

    def handle(
        self,
        method: str,
        path: str,
        params: dict | None = None,
        headers=None,
        body: bytes = b"",
        client: str = "-",
    ) -> tuple[int, dict, bytes]:
        """One request → ``(status, extra_headers, body_bytes)``.

        Every exception funnels through the protocol status table; the
        only headers the caller must add are Content-Length and a
        Content-Type default of ``application/json`` (overridable via the
        returned headers, e.g. the Prometheus exposition).
        """
        params = params or {}
        headers = headers if headers is not None else {}
        route = self._route_label(path)
        metrics = get_metrics()
        try:
            with metrics.time("repro_http_latency_seconds", route=route):
                status, extra, payload = self._dispatch(
                    method, path, route, params, headers, body, client
                )
        except RateLimitedError as error:
            metrics.inc("repro_http_rate_limited_total")
            status, envelope, extra = map_exception(error)
            payload = dump_body(envelope)
        except Exception as error:  # noqa: BLE001 - typed mapping, no tracebacks
            status, envelope, extra = map_exception(error)
            payload = dump_body(envelope)
        metrics.inc("repro_http_requests_total", route=route, status=str(status))
        return status, extra, payload

    def _dispatch(self, method, path, route, params, headers, body, client):
        if route == "healthz":
            return 200, {}, dump_body({"status": "ok"})
        if route == "readyz":
            if self.draining:
                return 503, {}, dump_body({"status": "draining"})
            return 200, {}, dump_body(
                {
                    "status": "ready",
                    "epoch": self._current_epoch_key(),
                    "applied_seq": self._applied_seq,
                }
            )
        if route == "stats":
            return self._handle_stats(params)
        if route == "videos":
            return self._handle_videos(params)
        if route == "recommend":
            if method != "GET":
                return 405, {}, dump_body(
                    error_envelope("method_not_allowed", f"{method} /recommend/*")
                )
            if self.draining:
                return 503, {}, dump_body(
                    error_envelope("draining", "server is draining; retry elsewhere")
                )
            return self._handle_recommend(
                path[len("/recommend/") :], params, headers, client
            )
        if route == "interaction":
            if method != "POST":
                return 405, {}, dump_body(
                    error_envelope("method_not_allowed", f"{method} /interaction")
                )
            if self.draining:
                return 503, {}, dump_body(
                    error_envelope("draining", "server is draining; retry elsewhere")
                )
            return self._handle_interaction(body, client)
        return 404, {}, dump_body(error_envelope("not_found", f"no route {path!r}"))

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _handle_stats(self, params):
        metrics = get_metrics()
        if params.get("format") == "prom":
            text = metrics.to_prometheus().encode("utf-8")
            return 200, {"Content-Type": "text/plain; version=0.0.4"}, text
        return 200, {}, dump_body(metrics.snapshot())

    def _handle_videos(self, params):
        ids = self.gateway.video_ids
        limit = params.get("limit")
        if limit is not None:
            limit = int(limit)
            if limit < 0:
                raise ValueError(f"limit must be >= 0, got {limit}")
            shown = ids[:limit]
        else:
            shown = ids
        return 200, {}, dump_body({"count": len(ids), "videos": shown})

    def _deadline_seconds(self, headers) -> float | None:
        raw = _header(headers, HEADER_DEADLINE_MS)
        if raw is None:
            ms = self.config.default_deadline_ms
            return None if ms is None else ms / 1000.0
        try:
            ms = float(raw)
        except (TypeError, ValueError):
            raise ValueError(f"invalid {HEADER_DEADLINE_MS} header {raw!r}") from None
        if ms <= 0:
            raise ValueError(f"{HEADER_DEADLINE_MS} must be > 0, got {ms:g}")
        return ms / 1000.0

    def _handle_recommend(self, video_id, params, headers, client):
        if not video_id:
            raise KeyError("empty video id")
        metrics = get_metrics()
        self.limiter.require(client)
        top_k = int(params.get("top_k", "10"))
        if not 1 <= top_k <= 1000:
            raise ValueError(f"top_k must be in 1..1000, got {top_k}")
        deadline = self._deadline_seconds(headers)
        deadline_class = "none" if deadline is None else f"{deadline:g}"
        request_key = f"/recommend/{video_id}?top_k={top_k}&deadline={deadline_class}"
        cached = self.cache.get(self._current_epoch_key(), request_key)
        if cached is not None:
            metrics.inc("repro_http_cache_hit_total")
            status, extra, payload = cached
            return status, {**extra, HEADER_CACHE: "hit"}, payload
        metrics.inc("repro_http_cache_miss_total")
        metrics.set_gauge("repro_http_cache_invalidate_total", self.cache.invalidations)
        metrics.set_gauge("repro_http_cache_stale_total", self.cache.stale_rejections)
        if not self.gateway.has_video(video_id):
            raise KeyError(f"unknown video {video_id!r}")
        result = self.gateway.recommend(video_id, top_k, deadline=deadline)
        epoch_key = result.epoch_key
        body = recommendation_body(
            video_id,
            self.algorithm,
            top_k,
            result,
            self._applied_for(epoch_key),
            list(epoch_key) if isinstance(epoch_key, tuple) else epoch_key,
        )
        payload = dump_body(body)
        if result.partial:
            # The deadline expired mid-scan: the prefix ranking rides in
            # the 504 body, and 200 stays reserved for complete rankings.
            return 504, {HEADER_CACHE: "miss"}, payload
        if not result.degraded:
            self.cache.put(epoch_key, request_key, 200, {}, payload)
        return 200, {HEADER_CACHE: "miss"}, payload

    def _handle_interaction(self, body, client):
        metrics = get_metrics()
        self.limiter.require(client)
        if len(body) > self.config.max_body_bytes:
            return 413, {}, dump_body(
                error_envelope(
                    "too_large",
                    f"body of {len(body)} bytes exceeds the "
                    f"{self.config.max_body_bytes}-byte limit",
                )
            )
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ValueError("request body is not valid JSON") from None
        record = validate_interaction(doc)
        if not self.gateway.has_video(record["video_id"]):
            raise KeyError(f"unknown video {record['video_id']!r}")
        if self.guard is not None and self.guard.state_of(record["user_id"]) == (
            "confirmed"
        ):
            # A confirmed spammer's POST is refused before it is logged:
            # nothing to withhold on replay, nothing durable to pay for.
            metrics.inc("repro_defense_blocked_comments_total")
            raise SpamQuarantinedError(
                f"user {record['user_id']!r} is quarantined as a spammer",
                retry_after_ms=self.config.defense.spam_window * 1000.0,
            )
        with self._apply_lock:
            seq, duplicate = self.interactions.append(record)
            if not duplicate:
                self._pending.append(dict(record, seq=seq))
                self._maybe_apply_locked()
        metrics.inc(
            "repro_http_interactions_total",
            result="duplicate" if duplicate else "logged",
        )
        return 200, {}, dump_body(
            {
                "status": "logged",
                "interaction_id": record["interaction_id"],
                "seq": seq,
                "duplicate": duplicate,
                "applied_seq": self._applied_seq,
            }
        )

    def _maybe_apply_locked(self) -> None:
        """Fold the pending batch into the index (apply lock held)."""
        if not self.config.apply_every:
            return
        if len(self._pending) < self.config.apply_every:
            return
        batch, self._pending = self._pending, []
        if self.guard is not None:
            verdict = self.guard.filter(
                interaction_pairs(batch), refs=[r["seq"] for r in batch]
            )
            if verdict.passed:
                self.gateway.apply_comments(verdict.passed)
            if verdict.revoked:
                self.gateway.remove_comments(verdict.revoked)
        else:
            self.gateway.apply_comments(interaction_pairs(batch))
        self._applied_seq += len(batch)
        self._record_epoch_seq()
        get_metrics().inc("repro_http_applies_total")
        get_metrics().set_gauge("repro_http_applied_seq", self._applied_seq)

    def poll_quarantine(self) -> None:
        """Release-on-clear sweep without new traffic (idle ticks).

        Suspects whose burst has aged out of the spam window get their
        held comments applied — late, not lost — even when no further
        interactions arrive to trigger a batch.
        """
        if self.guard is None:
            return
        with self._apply_lock:
            verdict = self.guard.poll()
            if verdict.passed:
                self.gateway.apply_comments(verdict.passed)
            if verdict.revoked:
                self.gateway.remove_comments(verdict.revoked)
            if verdict.passed or verdict.revoked:
                self._record_epoch_seq()

    def flush(self) -> None:
        """Close the interaction log cleanly (the drain path's last act).

        Pending-but-unapplied records are *not* force-applied: they are
        durable in the log, and the restart replay folds them in — which
        is exactly what ``applied_seq`` semantics require.
        """
        self.interactions.flush_and_close()
        if self.guard is not None:
            self.guard.close()


class ReproHTTPServer:
    """Threaded HTTP server feeding :class:`RecommendService`.

    *chaos* (a :class:`ChaosSchedule`) and *faults* (a
    :class:`~repro.testing.faults.FaultPlan` armed at the ``net.*``
    points) are both optional; the soak drives the former via CLI flags,
    in-process tests the latter.  ``port=0`` binds an ephemeral port —
    read the real one from :attr:`address`.
    """

    def __init__(
        self,
        service: RecommendService,
        host: str = "127.0.0.1",
        port: int = 0,
        chaos: ChaosSchedule | None = None,
        faults=None,
    ) -> None:
        self.service = service
        self.chaos = chaos
        self.faults = faults
        self._inflight = 0
        self._inflight_cond = threading.Condition(threading.Lock())
        self._serving = threading.Event()
        self._closed = False
        self._thread: threading.Thread | None = None
        self.httpd = ThreadingHTTPServer((host, port), _make_handler(self))
        self.httpd.daemon_threads = True

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``."""
        host, port = self.httpd.server_address[:2]
        return host, port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _track(self, delta: int) -> None:
        with self._inflight_cond:
            self._inflight += delta
            if self._inflight == 0:
                self._inflight_cond.notify_all()
        get_metrics().set_gauge("repro_http_inflight", self._inflight)

    def serve_forever(self) -> None:
        """Serve until :meth:`drain` (blocking; the CLI's main loop)."""
        self._serving.set()
        self.httpd.serve_forever(poll_interval=0.05)

    def start(self) -> "ReproHTTPServer":
        """Serve on a background thread; returns self (for tests)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-http", daemon=True
        )
        self._thread.start()
        return self

    def drain(self, timeout: float | None = None) -> int:
        """Graceful shutdown; returns requests still in flight at cutoff.

        Order matters: (1) flip the drain flag — new requests get clean
        503s and ``/readyz`` goes red; (2) wait up to the drain budget
        for in-flight requests to finish; (3) stop the listener; (4)
        flush the interaction log.  Durability first, availability last.
        """
        if self._closed:
            return 0
        self._closed = True
        self.service.begin_drain()
        budget = self.service.config.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        with self._inflight_cond:
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._inflight_cond.wait(remaining)
            leftover = self._inflight
        if self._serving.is_set():
            self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
        self.service.flush()
        get_metrics().inc("repro_http_drains_total")
        return leftover

    def __enter__(self) -> "ReproHTTPServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.drain()


def _make_handler(server: ReproHTTPServer):
    """Build the request-handler class bound to one :class:`ReproHTTPServer`."""

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-net"

        def log_message(self, format, *args):  # noqa: A002 - stdlib signature
            pass  # request logging is metrics' job; stderr stays quiet

        def do_GET(self):  # noqa: N802 - stdlib casing
            self._serve("GET")

        def do_POST(self):  # noqa: N802 - stdlib casing
            self._serve("POST")

        def _serve(self, method: str) -> None:
            server._track(+1)
            try:
                self._serve_tracked(method)
            except (BrokenPipeError, ConnectionResetError):
                # The peer hung up mid-response (or our own injected
                # abort); nothing to answer.
                self.close_connection = True
            finally:
                server._track(-1)

        def _serve_tracked(self, method: str) -> None:
            parsed = urlsplit(self.path)
            params = {
                key: values[0] for key, values in parse_qs(parsed.query).items()
            }
            length = int(self.headers.get("Content-Length") or 0)
            service = server.service
            if length > service.config.max_body_bytes:
                # Refuse before reading the payload; the unread body makes
                # the connection unusable, so close it.
                self.close_connection = True
                self._write(
                    413,
                    {},
                    dump_body(
                        error_envelope(
                            "too_large",
                            f"declared body of {length} bytes exceeds the "
                            f"{service.config.max_body_bytes}-byte limit",
                        )
                    ),
                )
                return
            body = self.rfile.read(length) if length else b""
            slow = abort = False
            if server.chaos is not None:
                slow, abort = server.chaos.next()
            if server.faults is not None:
                try:
                    server.faults.fire(NET_REQUEST_POINT)
                except InjectedFaultError as error:
                    self._write(
                        503, {}, dump_body(error_envelope("fault_injected", str(error)))
                    )
                    return
                except InjectedCrashError:
                    # Connection dies before any response byte.
                    self.close_connection = True
                    return
            if slow:
                get_metrics().inc("repro_http_chaos_total", kind="slow")
                time.sleep(server.chaos.slow_seconds)
            client = _header(self.headers, HEADER_CLIENT_ID) or self.client_address[0]
            status, extra, payload = service.handle(
                method, parsed.path, params, self.headers, body, client
            )
            if server.faults is not None:
                try:
                    server.faults.fire(NET_RESPONSE_POINT)
                except (InjectedCrashError, InjectedFaultError):
                    abort = True
            self._write(status, extra, payload, abort=abort)

        def _write(self, status, extra, payload, abort=False) -> None:
            self.send_response(status)
            headers = dict(extra)
            self.send_header(
                "Content-Type", headers.pop("Content-Type", "application/json")
            )
            self.send_header("Content-Length", str(len(payload)))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            if abort and len(payload) > 1:
                get_metrics().inc("repro_http_chaos_total", kind="abort")
                # Half the promised body, then a dead socket: the client
                # sees a short read against Content-Length.
                self.wfile.write(payload[: len(payload) // 2])
                self.wfile.flush()
                self.close_connection = True
                try:
                    self.connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                return
            self.wfile.write(payload)

        def finish(self):
            try:
                super().finish()
            except OSError:
                pass  # aborted sockets fail their final flush; expected

    return Handler
