"""End-to-end serving benchmark: ``repro serve`` driven over loopback HTTP.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload hot_hits --seed 1 --seconds 5 --trace 0

One run generates the community, brings the server up
:data:`SETUPS` times (``setup_s`` is the median), drives the last one
with the closed-loop load generator (:mod:`loadgen`) for ``--seconds``,
reads the server's peak RSS from ``/proc``, stops it, and replays every
answered operation against the in-process oracle (:mod:`oracle`).  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics — the end-to-end ones with
``--trace 0``, the per-layer ones with ``--trace 1``.  The exit code is
0 only when every operation succeeded and matched the oracle.

``--trace 1`` builds the index once through the span-timing bootstrap
(:mod:`traced_cli`), drives an untraced, a traced and again an untraced
server over that index with the same operations, and reports each
layer's numbers plus the tracing overhead (traced p50 minus the mean of
the two untraced p50s).

Work files live under ``.bench_build/perfbench/`` in the checkout; they
are removed when the run ends, and kept (logs included) when it fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

from oracle import verify
from tracing import layer_metrics, pct
from workloads import APPLY_EVERY, COMMUNITY_SEED, WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
#: Bring-ups per ``--trace 0`` run; ``setup_s`` reports their median.
SETUPS = 2
#: Seconds one subprocess step may take before the run is abandoned.
STEP_TIMEOUT = 150.0

_BANNER = re.compile(r"on (http://[\d.]+:\d+) ")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    # Fixed string hashing, so set and dict layouts (and timings) repeat.
    env["PYTHONHASHSEED"] = "0"
    return env


def _cli(spans: pathlib.Path | None) -> list[str]:
    """``repro.cli``, through the span-timing bootstrap when *spans* is set."""
    if spans is None:
        return [sys.executable, "-m", "repro.cli"]
    return [sys.executable, str(HERE / "traced_cli.py"), str(spans)]


def _pin() -> None:
    """Run on one CPU (the highest allowed): the closed loop's client and
    server then hand the CPU to each other instead of waking an idle one,
    which repeats far better on a shared virtual machine."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _check(argv: list[str], log: pathlib.Path) -> None:
    with open(log, "ab") as handle:
        subprocess.run(
            argv, check=True, stdout=handle, stderr=handle, env=_env(),
            timeout=STEP_TIMEOUT, preexec_fn=_pin,
        )


class Server:
    """One ``repro serve`` process, ready once ``/readyz`` answered 200.

    It shares the load generator's CPU, or with *all_cpus* may run on
    every CPU (a sharded deployment's shard scans can then overlap).
    """

    def __init__(self, argv: list[str], log: pathlib.Path, all_cpus: bool = False) -> None:
        from repro.net import RetryingClient, RetryPolicy

        self.log = log
        with open(log, "ab") as handle:
            self.proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=handle, env=_env(),
                preexec_fn=None if all_cpus else _pin,
            )
        try:
            self.url = self._banner_url()
            self.client = RetryingClient(self.url, RetryPolicy(attempts=1))
            while self.client.readyz().status != 200:
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def _banner_url(self) -> str:
        deadline = time.monotonic() + STEP_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _BANNER.search(line.decode())
                if match:
                    return match.group(1)
        raise RuntimeError(f"server did not start; see {self.log}")

    def stop(self) -> None:
        """SIGTERM (graceful drain), escalating to SIGKILL; always waits."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _generate(workload, workdir) -> tuple[pathlib.Path, float]:
    community = workdir / "community.json.gz"
    started = time.perf_counter()
    _check(
        _cli(None)
        + [
            "generate", str(community), "--hours", str(workload.hours),
            "--seed", str(COMMUNITY_SEED),
        ],
        workdir / "generate.log",
    )
    return community, time.perf_counter() - started


def _build(workload, community, directory, spans=None) -> pathlib.Path:
    """``repro index`` (``--shards`` for a sharded workload); the index path."""
    directory.mkdir(parents=True, exist_ok=True)
    index = directory / ("deployment" if workload.shards > 1 else "index.json.gz")
    argv = _cli(spans) + ["index", str(community), str(index)]
    if workload.shards > 1:
        argv += ["--shards", str(workload.shards)]
    _check(argv, directory / "log.txt")
    return index


def _serve(index, directory, spans=None, all_cpus=False) -> Server:
    directory.mkdir(parents=True, exist_ok=True)
    argv = _cli(spans) + [
        "serve", str(index), "--port", "0",
        "--apply-every", str(APPLY_EVERY),
        "--log", str(directory / "interactions.wal"),
    ]
    return Server(argv, directory / "log.txt", all_cpus)


def _drive(server, workload, seed, seconds, out, trace=False) -> dict:
    """Run the load generator against *server*: its rows and summary, /stats."""
    argv = [
        sys.executable, str(HERE / "loadgen.py"), server.url,
        "--server-pid", str(server.proc.pid),
        "--workload", workload.name, "--seed", str(seed),
        "--seconds", str(seconds), "--out", str(out),
    ] + (["--trace"] if trace else [])
    _check(argv, out.with_suffix(".log"))
    with open(out) as handle:
        run = json.load(handle)
    run["stats"] = server.client.stats_snapshot()
    for row in run["rows"]:
        try:
            row["body"] = json.loads(row["body"])
        except ValueError:
            row["body"] = None
    return run


@contextlib.contextmanager
def _phase(name: str):
    """Report a phase's wall time on stderr (where a run's time goes)."""
    started = time.perf_counter()
    yield
    print(f"# {name}: {time.perf_counter() - started:.2f} s", file=sys.stderr)


def _oracle_index(workload, community, served_index, workdir) -> pathlib.Path:
    """The single index answers are checked against (built for sharded runs)."""
    if workload.shards == 1:
        return served_index
    return _build(WORKLOADS["cold_scan"], community, workdir / "oracle")


def _ok_ms(rows, phase, kind) -> list[float]:
    return [
        r["ms"] for r in rows if r["phase"] == phase and r["kind"] == kind and r["status"] == 200
    ]


def _counter(stats: dict, *names: str) -> float:
    """Sum over every series of the named /stats counters."""
    return sum(
        value
        for key, value in stats.get("counters", {}).items()
        if key.split("{", 1)[0] in names
    )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _window_metrics(rows, summary) -> dict:
    """Latency, throughput and server CPU over the whole window (``/proc``
    counts CPU in 10 ms ticks, so a shorter span would add their error)."""
    window = [row for row in rows if row["phase"] == "window"]
    reads = _ok_ms(rows, "window", "recommend")
    completed = sum(1 for row in window if row["status"] == 200)
    return {
        "recommend_p50_ms": (pct(reads, 50), "ms"),
        "recommend_p90_ms": (pct(reads, 90), "ms"),
        "throughput_rps": (completed / summary["seconds"], "ops/s"),
        "server_cpu_ms_per_op": (1000.0 * summary["server_cpu_s"] / len(window), "ms"),
    }


def end_to_end(workload, seed, seconds, workdir):
    """``(metrics, attempted, failures)`` of one untraced run."""
    with _phase("generate"):
        community, _ = _generate(workload, workdir)
    setups: list[float] = []
    server = None
    try:
        with _phase("set-ups"):
            for attempt in range(SETUPS):
                if server is not None:
                    server.stop()
                directory = workdir / f"setup{attempt}"
                started = time.perf_counter()
                index = _build(workload, community, directory)
                server = _serve(index, directory, all_cpus=workload.all_cpus)
                setups.append(time.perf_counter() - started)
        with _phase("load"):
            run = _drive(server, workload, seed, seconds, workdir / "rows.json")
    finally:
        if server is not None:
            server.stop()
    rows = run["rows"]
    with _phase("oracle"):
        failures = verify(
            rows,
            _oracle_index(workload, community, index, workdir),
            directory / "interactions.wal",
        )
    # Shown, never gated: these tails do not repeat from run to run.
    for kind in ("recommend", "interaction"):
        latencies = _ok_ms(rows, "window", kind)
        if latencies:
            print(
                f"# {kind} p50 / p99 (information only): {pct(latencies, 50):.3f} / "
                f"{pct(latencies, 99):.3f} ms over {len(latencies)}",
                file=sys.stderr,
            )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "server_rss_mb": (run["summary"]["rss_mb"], "MiB"),
    }
    metrics.update(_window_metrics(rows, run["summary"]))
    return metrics, len(rows), failures


def per_layer(workload, seed, seconds, workdir):
    """``(metrics, attempted, failures)`` of one traced run."""
    community, generate_s = _generate(workload, workdir)
    index = _build(workload, community, workdir / "build", spans=workdir / "build_spans.json")
    spans_path = workdir / "serve_spans.json"
    server = None
    untraced = []
    try:
        # Untraced windows before and after the traced one: the overhead
        # is taken against their mean, so a drift of the machine's speed
        # over the three windows largely cancels.
        for name in ("plain", "traced", "plain_after"):
            started = time.perf_counter()
            server = _serve(
                index, workdir / name, spans=spans_path if name == "traced" else None,
                all_cpus=workload.all_cpus,
            )
            if name == "traced":
                ready_s = time.perf_counter() - started
            driven = _drive(
                server, workload, seed, seconds, workdir / f"{name}_rows.json",
                trace=name == "traced",
            )
            server.stop()
            server = None
            if name == "traced":
                run = driven
            else:
                untraced.append(driven)
    finally:
        if server is not None:
            server.stop()
    oracle_index = _oracle_index(workload, community, index, workdir)
    failures = verify(run["rows"], oracle_index, workdir / "traced" / "interactions.wal")
    for name, plain in zip(("plain", "plain_after"), untraced):
        failures += verify(plain["rows"], oracle_index, workdir / name / "interactions.wal")
    with open(spans_path) as handle:
        spans = json.load(handle)
    with open(workdir / "build_spans.json") as handle:
        build_spans = json.load(handle)
    rows, summary, stats = run["rows"], run["summary"], run["stats"]
    client_ms = {
        str(r["id"]): r["ms"]
        for r in rows
        if r["phase"] == "window" and r["kind"] == "recommend" and r["status"] == 200
    }
    traced_p50 = pct(list(client_ms.values()), 50)
    untraced_p50 = statistics.mean(
        pct(_ok_ms(plain["rows"], "window", "recommend"), 50) for plain in untraced
    )
    ingest_ms = [
        (s["end"] - s["start"]) * 1000.0 for s in build_spans if s["name"] == "setup.ingest_clip"
    ]
    cache = [_counter(stats, f"repro_http_cache_{kind}_total") for kind in ("hit", "miss")]
    memo = [
        _counter(stats, f"repro_serving_memo_{kind}_total", f"repro_sharded_memo_{kind}_total")
        for kind in ("hit", "miss")
    ]
    scanned = [
        _counter(stats, f"repro_candidates_{kind}_total") for kind in ("scored", "pruned")
    ]
    metrics = layer_metrics(spans, client_ms)
    metrics.update(
        {
            "client.cpu_ms_per_op": (
                1000.0 * summary["client_cpu_s"] / sum(1 for r in rows if r["phase"] == "window"),
                "ms",
            ),
            "client.connect_ms_p50": (pct(summary["connect_ms"], 50), "ms"),
            "client.recommend_p50_ms": (traced_p50, "ms"),
            "trace.overhead_ms": (traced_p50 - untraced_p50, "ms"),
            "net.cache_hit_ratio": (_ratio(cache[0], sum(cache)), "ratio"),
            "serving.memo_hit_ratio": (_ratio(memo[0], sum(memo)), "ratio"),
            # The pruned scan's useful-work ratio: candidates fully scored
            # over candidates considered (scored plus pruned by the bound).
            "core.scored_ratio": (_ratio(scanned[0], sum(scanned)), "ratio"),
            "serving.shed_total": (_counter(stats, "repro_serving_shed_total"), "count"),
            "serving.apply_total": (_counter(stats, "repro_http_applies_total"), "count"),
            "epoch.publish_total": (
                sum(1 for s in spans if s["name"] == "epoch.publish"), "count"
            ),
            "setup.generate_s": (generate_s, "s"),
            "setup.ingest_clip_ms_p50": (pct(ingest_ms, 50), "ms"),
            "setup.ready_s": (ready_s, "s"),
        }
    )
    return metrics, len(rows) + sum(len(plain["rows"]) for plain in untraced), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_build" / "perfbench" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failures = measure(workload, args.seed, args.seconds, workdir)
    except BaseException:
        print(f"error: run abandoned; logs kept in {workdir}", file=sys.stderr)
        raise
    shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
