"""Closed-loop load generator: one process, one connection at a time.

Drives a running ``repro serve`` with the bundled
:class:`~repro.net.RetryingClient` at ``attempts=1`` (a failure is
counted, never retried away) and no deadline header (so no response can
be a time-dependent partial ranking).  Phases: a short warm-up, then
the measured window of ``--seconds``.  The server's CPU is read from
``/proc/<pid>/stat`` at the window's two ends and its peak RSS from
``/proc/<pid>/status`` at its end.  Rows (one per operation, bodies
included for the oracle) and a summary are written as JSON.

Usage::

    python3 perfbench/loadgen.py URL --server-pid PID --workload hot_hits \\
        --seed 1 --seconds 5 --out rows.json [--trace]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import time
from urllib.parse import quote

from tracing import REQUEST_HEADER
from workloads import WORKLOADS, operations, warmup

#: Length of the timed warm-up (see :func:`workloads.warmup`).
WARMUP_SECONDS = 0.5


def process_cpu_seconds(pid: int) -> float:
    """utime + stime of *pid* (``/proc/<pid>/stat`` fields 14 and 15)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of *pid* in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def _own_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def main(argv=None) -> int:
    from repro.errors import NetClientError
    from repro.net import RetryingClient, RetryPolicy

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("url")
    parser.add_argument("--server-pid", type=int, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true", help="time connect()")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    connects: list[float] = []
    if args.trace:
        connect = http.client.HTTPConnection.connect

        def timed_connect(self):
            started = time.perf_counter()
            try:
                return connect(self)
            finally:
                connects.append((time.perf_counter() - started) * 1000.0)

        http.client.HTTPConnection.connect = timed_connect

    client = RetryingClient(
        args.url, RetryPolicy(attempts=1, timeout=60.0), client_id=f"bench-{args.seed}"
    )
    videos = client.videos()
    rows: list[list] = []

    def run(op, phase: str, request_id: int) -> None:
        kind, a, b = op
        started = time.perf_counter()
        try:
            if kind == "recommend":
                response = client.request(
                    "GET",
                    f"/recommend/{quote(a, safe='')}?top_k={int(b)}",
                    headers={REQUEST_HEADER: str(request_id)},
                )
            else:
                response = client.interaction(a, b, watched_percent=100, liked=1)
            status, body, cache = response.status, response.body, response.header("X-Cache")
        except NetClientError as error:
            status, body, cache = error.status, str(error).encode(), None
        elapsed = (time.perf_counter() - started) * 1000.0
        rows.append([phase, kind, a, b, request_id, status, elapsed, cache, body])

    stream = operations(workload, args.seed, videos)
    request_id = 0
    warm = warmup(workload, videos)
    if warm is not None:
        for op in warm:
            request_id += 1
            run(op, "warmup", request_id)
    else:
        end = time.perf_counter() + WARMUP_SECONDS
        while time.perf_counter() < end:
            request_id += 1
            run(next(stream), "warmup", request_id)

    connects.clear()
    server_cpu = process_cpu_seconds(args.server_pid)
    client_cpu = _own_cpu_seconds()
    started = time.perf_counter()
    end = started + args.seconds
    while time.perf_counter() < end:
        request_id += 1
        run(next(stream), "window", request_id)
    summary = {
        "seconds": time.perf_counter() - started,
        "server_cpu_s": process_cpu_seconds(args.server_pid) - server_cpu,
        "client_cpu_s": _own_cpu_seconds() - client_cpu,
        "connect_ms": list(connects),
        "rss_mb": peak_rss_mb(args.server_pid),
    }
    fields = ("phase", "kind", "a", "b", "id", "status", "ms", "cache", "body")
    with open(args.out, "w") as handle:
        json.dump(
            {
                "summary": summary,
                "rows": [
                    dict(zip(fields, row[:-1]), body=row[-1].decode("utf-8", "replace"))
                    for row in rows
                ],
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
