"""Multi-process network chaos soak for the HTTP serving front-end.

Where :mod:`repro.testing.chaos` tortures the gateway *in process*, this
harness exercises the real wire path: a ``repro serve`` **subprocess**
(own interpreter, own signal handling) takes load from ``repro load``
subprocesses while the server's deterministic :class:`ChaosSchedule`
injects slow requests and mid-response connection aborts.  Mid-soak the
harness SIGTERMs the server — while load generators are still firing —
asserts a clean drain (exit 0), restarts it on the **same port** against
the same index and interaction log, and keeps loading.

Afterwards it proves the two promises the front-end makes:

* **Exactly-once interactions.**  Every interaction a client saw a 200
  for is durable in the log (zero lost), and no ``interaction_id`` was
  logged twice (zero duplicated) — across the drain, the restart and
  every abort-triggered client retry.
* **Bit-identical serving.**  Every 200 recommendation payload is
  replayed against a fresh oracle gateway over the same index file:
  responses are grouped by their ``applied_seq``, the oracle folds in
  exactly that prefix of the interaction log, and the served
  ``(videoId, score)`` lists must match float for float.  This works
  across the restart because a restarted server replays the whole log as
  one batch and ``apply_comments`` is batch-split invariant.

Scale via ``NetChaosConfig.queries`` (the test honours the
``NETCHAOS_QUERIES`` env var); on failure — and whenever
``$CHAOS_ARTIFACT_DIR`` is set — the report, server logs and offending
rows land there for CI to attach.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import repro
from repro.net.interactions import interaction_pairs, read_interactions
from repro.obs import percentiles

__all__ = ["NetChaosConfig", "NetChaosReport", "run_net_soak"]

_BANNER = re.compile(
    r"on (http://[\d.]+:(\d+)) \(interaction log (.+), (\d+) replayed\)"
)


@dataclass(frozen=True)
class NetChaosConfig:
    """Knobs of one network soak (defaults = the acceptance-scale run)."""

    queries: int = 10_000
    loadgens: int = 2
    concurrency: int = 4
    interact_every: int = 7
    apply_every: int = 25
    top_k: int = 10
    seed: int = 2015
    hours: float = 2.0
    attempts: int = 8
    chaos_slow_every: int = 97
    chaos_slow_ms: float = 5.0
    chaos_abort_every: int = 61
    #: SIGTERM the server once this fraction of phase-1 queries has been
    #: served — "mid-soak" by observation, not by a timing guess.
    drain_after_fraction: float = 0.25
    drain_s: float = 10.0
    startup_timeout_s: float = 90.0
    workdir: str | None = None
    index_path: str | None = None

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ValueError(f"queries must be >= 1, got {self.queries}")
        if self.loadgens < 1:
            raise ValueError(f"loadgens must be >= 1, got {self.loadgens}")
        if self.interact_every < 0:
            raise ValueError(
                f"interact_every must be >= 0, got {self.interact_every}"
            )


@dataclass
class NetChaosReport:
    """Everything the soak measured and every invariant it checked."""

    attempted: int = 0
    by_status: dict = field(default_factory=dict)
    recommend_ok: int = 0
    interactions_acked: int = 0
    duplicates_detected: int = 0
    conn_errors: int = 0
    logged_records: int = 0
    lost_acks: list = field(default_factory=list)
    double_logged: list = field(default_factory=list)
    server_500s: int = 0
    oracle_checked: int = 0
    oracle_failures: list = field(default_factory=list)
    degraded_served: int = 0
    partial_served: int = 0
    server_exits: list = field(default_factory=list)
    loadgen_exits: list = field(default_factory=list)
    loadgen_failures: list = field(default_factory=list)
    served_at_sigterm: int = 0
    restarts: int = 0
    replayed_on_restart: int = 0
    loadgens_alive_at_sigterm: int = 0
    hit_latency_ms: dict = field(default_factory=dict)
    miss_latency_ms: dict = field(default_factory=dict)
    rps: float = 0.0
    elapsed_seconds: float = 0.0
    artifact_path: str | None = None

    @property
    def ok(self) -> bool:
        return (
            not self.lost_acks
            and not self.double_logged
            and not self.oracle_failures
            and self.server_500s == 0
            and all(code == 0 for code in self.server_exits)
            and not self.loadgen_failures
            and self.restarts >= 1
        )


class _Server:
    """One ``repro serve`` subprocess with a parsed startup banner."""

    def __init__(self, config: NetChaosConfig, index: pathlib.Path, port: int) -> None:
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            str(index),
            "--port",
            str(port),
            "--apply-every",
            str(config.apply_every),
            "--drain-s",
            str(config.drain_s),
        ]
        if config.chaos_slow_every:
            argv += [
                "--chaos-slow-every",
                str(config.chaos_slow_every),
                "--chaos-slow-ms",
                str(config.chaos_slow_ms),
            ]
        if config.chaos_abort_every:
            argv += ["--chaos-abort-every", str(config.chaos_abort_every)]
        env = dict(os.environ)
        package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.lines: list[str] = []
        self._banner = threading.Event()
        self.url = self.log_path = None
        self.port = self.replayed = None
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + config.startup_timeout_s
        while not self._banner.wait(timeout=0.1):
            if time.monotonic() > deadline:
                break
        if self.url is None:  # timeout, or EOF without a banner (crash)
            self.proc.kill()
            raise RuntimeError("server failed to start:\n" + "".join(self.lines))

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            match = _BANNER.search(line)
            if match:
                self.url = match.group(1)
                self.port = int(match.group(2))
                self.log_path = pathlib.Path(match.group(3))
                self.replayed = int(match.group(4))
                self._banner.set()
        self._banner.set()  # EOF without a banner -> startup failure above

    def sigterm_and_wait(self, timeout: float) -> int:
        self.proc.send_signal(signal.SIGTERM)
        code = self.proc.wait(timeout=timeout)
        self._reader.join(timeout=5.0)
        return code


def _build_index(config: NetChaosConfig, workdir: pathlib.Path) -> pathlib.Path:
    from repro.community import CommunityConfig, generate_community
    from repro.core import CommunityIndex, RecommenderConfig
    from repro.io import save_index

    dataset = generate_community(
        CommunityConfig(hours=config.hours, seed=config.seed)
    )
    index = CommunityIndex(dataset, RecommenderConfig())
    path = workdir / "netchaos_index.json.gz"
    save_index(index, path)
    return path


def _spawn_loadgens(
    config: NetChaosConfig,
    url: str,
    workdir: pathlib.Path,
    phase: int,
    queries: int,
) -> list[tuple[subprocess.Popen, pathlib.Path]]:
    gens = []
    share = [
        queries // config.loadgens
        + (1 if gen < queries % config.loadgens else 0)
        for gen in range(config.loadgens)
    ]
    for gen, count in enumerate(share):
        if count == 0:
            continue
        out = workdir / f"gen_p{phase}_{gen}.jsonl"
        # Distinct seeds keep every loadgen's client ids — and therefore
        # every minted interaction_id — globally unique across phases.
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "load",
            url,
            "--queries",
            str(count),
            "--concurrency",
            str(config.concurrency),
            "--top-k",
            str(config.top_k),
            "--interact-every",
            str(config.interact_every),
            "--seed",
            str(config.seed + 1000 * phase + gen),
            "--attempts",
            str(config.attempts),
            "--out",
            str(out),
        ]
        env = dict(os.environ)
        package_root = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (package_root, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        gens.append((proc, out))
    return gens


def _collect_rows(report: NetChaosReport, gens) -> list[dict]:
    rows: list[dict] = []
    for proc, out in gens:
        stdout, _ = proc.communicate()
        report.loadgen_exits.append(proc.returncode)
        if out.exists():
            with open(out) as handle:
                rows.extend(json.loads(line) for line in handle if line.strip())
        else:
            # The generator died before writing its rows (e.g. its
            # bootstrap outlived the server) — keep the evidence.
            report.loadgen_failures.append(
                {"argv": proc.args, "exit": proc.returncode, "stdout": stdout}
            )
    return rows


def _served_requests(url: str, *routes: str) -> int:
    """Requests on *routes* the server has answered so far."""
    from repro.net.client import RetryingClient, RetryPolicy

    client = RetryingClient(url, RetryPolicy(attempts=1, timeout=5.0))
    counters = client.stats_snapshot().get("counters", {})
    return sum(
        int(value)
        for key, value in counters.items()
        if key.startswith("repro_http_requests_total")
        and any(f'route="{route}"' in key for route in routes)
    )


def _await_traffic(url: str, threshold: int, loadgens: int, timeout: float) -> int:
    """Block until the server has served *threshold* queries and each of
    *loadgens* has fetched the catalogue (or timeout): a generator still
    starting up at the SIGTERM would find no server and give up."""
    deadline = time.monotonic() + timeout
    served = 0
    while time.monotonic() < deadline:
        try:
            served = _served_requests(url, "recommend", "interaction")
            if served >= threshold and _served_requests(url, "videos") >= loadgens:
                break
        except Exception:  # noqa: BLE001 - transient; keep polling
            served = 0
        time.sleep(0.05)
    return served


def _verify_interactions(report: NetChaosReport, rows, log_path) -> list[dict]:
    """Exactly-once check; returns the log records for the oracle replay."""
    records = read_interactions(log_path)
    report.logged_records = len(records)
    seen: dict[str, int] = {}
    for record in records:
        seen[record["interaction_id"]] = seen.get(record["interaction_id"], 0) + 1
    report.double_logged = sorted(rid for rid, n in seen.items() if n > 1)
    for row in rows:
        if row["kind"] != "interaction" or row["status"] != 200:
            continue
        report.interactions_acked += 1
        body = row.get("body") or {}
        if body.get("duplicate"):
            report.duplicates_detected += 1
        rid = body.get("interaction_id")
        if rid not in seen:
            report.lost_acks.append(rid)
    return records


def _verify_oracle(
    report: NetChaosReport,
    rows,
    records,
    index_path,
    top_k: int,
) -> None:
    """Replay every 200 recommendation payload against a fresh gateway.

    Rows are grouped by ``applied_seq`` and replayed in ascending order,
    folding ``records[applied:seq]`` into the oracle between groups —
    the exact state the serving index was in behind each response.
    """
    from repro.io import load_index
    from repro.serving import ServingGateway

    groups: dict[int, list[dict]] = {}
    for row in rows:
        if row["kind"] != "recommend" or row["status"] != 200:
            continue
        body = row.get("body") or {}
        if body.get("degraded"):
            report.degraded_served += 1
            continue  # social-blind ranking; the healthy oracle differs
        groups.setdefault(int(body["applied_seq"]), []).append(row)
    gateway = ServingGateway(load_index(index_path))
    applied = 0
    memo: dict[tuple, list] = {}
    for seq in sorted(groups):
        if seq > applied:
            gateway.apply_comments(interaction_pairs(records[applied:seq]))
            applied = seq
            memo.clear()
        for row in groups[seq]:
            report.oracle_checked += 1
            key = (row["video"], int(row["body"]["top_k"]))
            expected = memo.get(key)
            if expected is None:
                result = gateway.recommend(key[0], key[1])
                expected = [
                    {"videoId": vid, "score": float(result.scores[rank])}
                    for rank, vid in enumerate(result)
                ]
                memo[key] = expected
            if row["body"]["recommendations"] != expected:
                report.oracle_failures.append(
                    {
                        "video": row["video"],
                        "applied_seq": seq,
                        "served": row["body"]["recommendations"],
                        "expected": expected,
                    }
                )


def _dump_artifact(config: NetChaosConfig, report: NetChaosReport, servers) -> str | None:
    directory = os.environ.get("CHAOS_ARTIFACT_DIR")
    if not directory:
        return None
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"netchaos_seed{config.seed}.json")
    payload = {
        "config": {
            key: getattr(config, key)
            for key in (
                "queries",
                "loadgens",
                "concurrency",
                "interact_every",
                "apply_every",
                "top_k",
                "seed",
                "hours",
                "chaos_slow_every",
                "chaos_abort_every",
            )
        },
        "report": {
            key: value
            for key, value in vars(report).items()
            if key != "artifact_path"
        },
        "ok": report.ok,
        "server_logs": ["".join(server.lines) for server in servers],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, default=str)
        handle.write("\n")
    return path


def run_net_soak(config: NetChaosConfig) -> NetChaosReport:
    """Run the full soak; the report's ``ok`` is the acceptance verdict."""
    report = NetChaosReport()
    started = time.monotonic()
    cleanup = config.workdir is None
    workdir = pathlib.Path(config.workdir or tempfile.mkdtemp(prefix="netchaos-"))
    workdir.mkdir(parents=True, exist_ok=True)
    servers: list[_Server] = []
    wait_budget = config.drain_s + 60.0
    try:
        index = (
            pathlib.Path(config.index_path)
            if config.index_path
            else _build_index(config, workdir)
        )
        phase1 = config.queries // 2
        phase2 = config.queries - phase1

        # Phase 1: ephemeral port, load, SIGTERM mid-flight.
        server = _Server(config, index, port=0)
        servers.append(server)
        port, url = server.port, server.url
        gens = _spawn_loadgens(config, url, workdir, phase=1, queries=phase1)
        threshold = max(10, int(phase1 * config.drain_after_fraction))
        report.served_at_sigterm = _await_traffic(
            url, threshold, len(gens), config.startup_timeout_s
        )
        report.loadgens_alive_at_sigterm = sum(
            1 for proc, _ in gens if proc.poll() is None
        )
        report.server_exits.append(server.sigterm_and_wait(wait_budget))
        rows = _collect_rows(report, gens)

        # Restart on the same port, same index, same interaction log.
        server = _Server(config, index, port=port)
        servers.append(server)
        report.restarts += 1
        report.replayed_on_restart = server.replayed
        log_path = server.log_path

        # Phase 2: load against the restarted server, then drain idle.
        gens = _spawn_loadgens(config, server.url, workdir, phase=2, queries=phase2)
        rows.extend(_collect_rows(report, gens))
        report.server_exits.append(server.sigterm_and_wait(wait_budget))

        # Bookkeeping over every attempted request.
        report.attempted = len(rows)
        for row in rows:
            key = str(row["status"]) if row["status"] is not None else "conn"
            report.by_status[key] = report.by_status.get(key, 0) + 1
            if row["status"] is None:
                report.conn_errors += 1
            elif row["status"] == 500:
                report.server_500s += 1
            elif row["status"] == 504:
                report.partial_served += 1
            if row["kind"] == "recommend" and row["status"] == 200:
                report.recommend_ok += 1
        hits = [
            row["ms"]
            for row in rows
            if row["kind"] == "recommend"
            and row["status"] == 200
            and row.get("cache") == "hit"
        ]
        misses = [
            row["ms"]
            for row in rows
            if row["kind"] == "recommend"
            and row["status"] == 200
            and row.get("cache") != "hit"
        ]
        if hits:
            report.hit_latency_ms = percentiles(hits, (50.0, 99.0))
        if misses:
            report.miss_latency_ms = percentiles(misses, (50.0, 99.0))

        records = _verify_interactions(report, rows, log_path)
        _verify_oracle(report, rows, records, index, config.top_k)
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.proc.kill()
        report.elapsed_seconds = time.monotonic() - started
        if report.elapsed_seconds > 0:
            report.rps = report.attempted / report.elapsed_seconds
        report.artifact_path = _dump_artifact(config, report, servers)
        if cleanup and report.ok:
            shutil.rmtree(workdir, ignore_errors=True)
    return report
