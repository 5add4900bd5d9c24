"""In-memory span recording around the public functions of each layer.

The benchmark's traced run wraps calls *into* layers from the outside;
nothing under ``src/`` is instrumented.  A span is ``(id, parent, name,
start, end, request, attrs)`` with ``time.perf_counter`` instants.  Spans
opened on one thread nest through a thread-local stack; a pool thread
gets its parent explicitly, because :func:`install_server_wrappers`
wraps ``ThreadPoolExecutor.submit`` to carry the submitting span along.
Every span of one HTTP request shares the request id the load generator
sent in :data:`REQUEST_HEADER`.

:func:`layer_metrics` turns the span list into the per-layer numbers
(self time = duration minus the part of the interval child spans cover).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

#: Header carrying the load generator's per-request id into the server.
REQUEST_HEADER = "X-Bench-Request"


class SpanRecorder:
    """Thread-safe in-memory span log; :meth:`dump` writes it as JSON."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """``(span id, request id)`` of the innermost open span, or None."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, request=None, parent=None, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*.

        *parent* defaults to the innermost open span on this thread;
        *request* defaults to the parent's request id.  *attrs* is a
        callable ``(result) -> dict`` evaluated after the call.
        """
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        parent_id, parent_request = parent if parent is not None else (None, None)
        if request is None:
            request = parent_request
        with self._lock:
            span_id = next(self._ids)
        stack.append((span_id, request))
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = attrs(result) if attrs is not None and result is not None else None
            with self._lock:
                self.spans.append((span_id, parent_id, name, start, end, request, extra))

    def wrap(self, owner, attribute: str, name: str, request_of=None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        *request_of* ``(args, kwargs) -> request id`` starts a request's
        root span; nested spans inherit the id from their parent.
        """
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            request = request_of(args, kwargs) if request_of is not None else None
            return recorder.call(name, original, args, kwargs, request=request)

        setattr(owner, attribute, traced)

    def dump(self, path) -> None:
        fields = ("id", "parent", "name", "start", "end", "request", "attrs")
        with open(path, "w") as handle:
            json.dump([dict(zip(fields, span)) for span in self.spans], handle)


def _request_header(args, kwargs):
    """Request id from ``RecommendService.handle(self, method, path, params, headers, ...)``."""
    headers = kwargs.get("headers", args[4] if len(args) > 4 else None)
    if headers is None:
        return None
    return headers.get(REQUEST_HEADER)


def _recommend_with_stages(recorder: SpanRecorder, original):
    """Wrap ``FusionRecommender.recommend`` so it always records its stages.

    The recommender already times candidates / content / social / fuse
    into a :class:`~repro.obs.QueryTrace` when one is passed; the wrapper
    passes one when the caller did not and keeps the stage seconds as a
    span attribute.
    """
    from repro.obs import QueryTrace

    @functools.wraps(original)
    def traced(self, query_id, top_k=10, trace=None, **kwargs):
        query_trace = trace if trace is not None else QueryTrace("recommend")

        def attrs(result):
            return {"stages": query_trace.stage_seconds() if trace is None else {}}

        return recorder.call(
            "core.recommend",
            original,
            (self, query_id, top_k),
            dict(kwargs, trace=query_trace),
            attrs=attrs,
        )

    return traced


def install_server_wrappers(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every layer the benchmark names."""
    import concurrent.futures

    import repro.io
    import repro.sharding
    from repro.core.pipeline import LiveCommunityIndex
    from repro.core.recommender import FusionRecommender
    from repro.core.stores import ContentStore
    from repro.net.interactions import InteractionLog
    from repro.net.server import RecommendService
    from repro.serving.epoch import EpochManager
    from repro.serving.gateway import ServingGateway
    from repro.sharding.gateway import ShardedGateway, ShardServingGateway

    wrap = recorder.wrap
    wrap(RecommendService, "handle", "net.handle", request_of=_request_header)
    wrap(InteractionLog, "append", "net.append")
    wrap(ServingGateway, "recommend", "serving.recommend")
    wrap(ServingGateway, "apply_comments", "serving.apply")
    wrap(EpochManager, "publish", "epoch.publish")
    wrap(LiveCommunityIndex, "apply_comments", "core.apply_comments")
    wrap(ShardedGateway, "recommend", "sharding.recommend")
    wrap(ShardedGateway, "apply_comments", "serving.apply")
    wrap(ShardServingGateway, "scatter_recommend", "sharding.shard_scan")
    wrap(ContentStore, "extract", "setup.ingest_clip")
    wrap(repro.io, "load_index", "setup.load_index")
    wrap(repro.sharding, "recover_shards", "setup.load_index")
    FusionRecommender.recommend = _recommend_with_stages(
        recorder, FusionRecommender.recommend
    )

    submit = concurrent.futures.ThreadPoolExecutor.submit

    @functools.wraps(submit)
    def submit_with_parent(pool, fn, /, *args, **kwargs):
        parent = recorder.current()
        if parent is None:
            return submit(pool, fn, *args, **kwargs)

        def run():
            # Pool threads have no open span: hand them the submitter's.
            return recorder.call("pool.task", fn, args, kwargs, parent=parent)

        return submit(pool, run)

    concurrent.futures.ThreadPoolExecutor.submit = submit_with_parent


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def pct(values, point: float) -> float:
    """Nearest-rank percentile *point* (0..100) of *values*; 0.0 when empty."""
    from repro.obs import percentiles

    return percentiles(values, (point,))[f"p{point:g}"]


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> seconds not covered by the span's children."""
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result = {}
    for span in spans:
        kids = children.get(span["id"], ())
        lo, hi = span["start"], span["end"]
        covered = _covered(
            (max(lo, kid["start"]), min(hi, kid["end"]))
            for kid in kids
            if kid["end"] > lo and kid["start"] < hi
        )
        result[span["id"]] = (hi - lo) - covered
    return result


def layer_metrics(spans: list[dict], client_ms: dict) -> dict[str, tuple[float, str]]:
    """Per-layer ``name -> (value, unit)`` from the server's spans.

    *client_ms* maps request id -> client-observed latency (ms) of the
    measured recommend requests; only spans of those requests (and the
    unattributed writer-side spans such as applies) are counted.
    """
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def durations(name, only_measured=True):
        return [
            (s["end"] - s["start"]) * 1000.0
            for s in by_name.get(name, ())
            if not only_measured or s["request"] in client_ms
        ]

    def self_ms(name):
        return [
            own[s["id"]] * 1000.0
            for s in by_name.get(name, ())
            if s["request"] in client_ms
        ]

    handle = {
        s["request"]: (s["end"] - s["start"]) * 1000.0
        for s in by_name.get("net.handle", ())
        if s["request"] in client_ms
    }
    wire = [client_ms[req] - ms for req, ms in handle.items()]
    core = [s for s in by_name.get("core.recommend", ()) if s["request"] in client_ms]
    stages: dict[str, list[float]] = {}
    for span in core:
        for stage, seconds in (span["attrs"] or {}).get("stages", {}).items():
            stages.setdefault(stage, []).append(seconds * 1000.0)
    core_ms = durations("core.recommend")
    # Scatter self time: the coordinator's call minus its slowest shard.
    shard_scans: dict = {}
    for span in by_name.get("sharding.shard_scan", ()):
        shard_scans.setdefault(span["parent"], []).append(span["end"] - span["start"])
    scatter_self = [
        (s["end"] - s["start"] - max(shard_scans.get(s["id"], [0.0]))) * 1000.0
        for s in by_name.get("sharding.recommend", ())
        if s["request"] in client_ms
    ]
    client_total = sum(client_ms.values())
    ms = lambda values: (pct(values, 50), "ms")  # noqa: E731
    return {
        "net.handle_self_ms_p50": ms(self_ms("net.handle")),
        "net.wire_ms_p50": ms(wire),
        "net.append_ms_p50": ms(durations("net.append", False)),
        "serving.self_ms_p50": ms(self_ms("serving.recommend")),
        "serving.apply_ms_p50": ms(durations("serving.apply", False)),
        "epoch.publish_ms_p50": ms(durations("epoch.publish", False)),
        "core.apply_comments_ms_p50": ms(durations("core.apply_comments", False)),
        "core.recommend_ms_p50": ms(core_ms),
        "core.recommend_ms_p90": (pct(core_ms, 90), "ms"),
        "core.recommend_share": (sum(core_ms) / client_total if client_total else 0.0, "ratio"),
        "core.candidates_ms_p50": ms(stages.get("candidates", [])),
        "core.content_ms_p50": ms(stages.get("content_scores", [])),
        "core.social_ms_p50": ms(stages.get("social_scores", [])),
        "core.fuse_ms_p50": ms(stages.get("fuse_topk", [])),
        "sharding.shard_scan_ms_p50": ms(durations("sharding.shard_scan")),
        "sharding.scatter_self_ms_p50": ms(scatter_self),
        "setup.load_index_s": (sum(durations("setup.load_index", False)) / 1000.0, "s"),
    }
