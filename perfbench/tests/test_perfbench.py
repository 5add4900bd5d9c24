"""The benchmark's own tests: smoke runs against the real server, the
oracle's failure detection, the traced bootstrap's fidelity and the
self-time arithmetic.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The smoke runs build real indexes, so the module takes a few minutes.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

import run
from oracle import verify
from tracing import REQUEST_HEADER, self_times
from workloads import WORKLOADS

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _run(workload, trace=0)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _run("hot_hits", trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert result["metrics"]["net.cache_hit_ratio"]["value"] > 0.5


@pytest.fixture(scope="module")
def small_index(tmp_path_factory):
    directory = tmp_path_factory.mktemp("index")
    community = directory / "community.json.gz"
    env = run._env()
    for argv in (
        ["generate", str(community), "--hours", "3", "--seed", "5"],
        ["index", str(community), str(directory / "index.json.gz")],
    ):
        subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv], check=True, env=env,
            capture_output=True, timeout=300,
        )
    return directory / "index.json.gz"


def _rankings(server) -> dict:
    answers = {}
    for video in server.client.videos():
        response = server.client.request(
            "GET", f"/recommend/{video}?top_k=5", headers={REQUEST_HEADER: video}
        )
        assert response.status == 200
        answers[video] = response.json()["recommendations"]
    return answers


def test_traced_bootstrap_serves_identical_rankings(small_index, tmp_path):
    spans = tmp_path / "spans.json"
    plain = run._serve(small_index, tmp_path / "plain")
    try:
        expected = _rankings(plain)
    finally:
        plain.stop()
    traced = run._serve(small_index, tmp_path / "traced", spans=spans)
    try:
        assert _rankings(traced) == expected
    finally:
        traced.stop()
    names = {span["name"] for span in json.loads(spans.read_text())}
    assert {"net.handle", "serving.recommend", "core.recommend", "setup.load_index"} <= names


def test_oracle_counts_a_wrong_ranking_as_failed(small_index, tmp_path):
    from repro.io import load_index
    from repro.serving import ServingGateway

    gateway = ServingGateway(load_index(small_index))
    video = gateway.current_epoch.video_ids[0]
    result = gateway.recommend(video, 5)
    body = {
        "recommendations": [
            {"videoId": vid, "score": float(result.scores[rank])}
            for rank, vid in enumerate(result)
        ],
        "applied_seq": 0,
        "partial": False,
        "degraded": False,
    }
    row = {"kind": "recommend", "a": video, "b": 5, "id": 1, "status": 200, "body": body}
    log = tmp_path / "absent.wal"
    assert verify([row], small_index, log) == []
    wrong = json.loads(json.dumps(row))
    wrong["body"]["recommendations"][0]["score"] += 1e-9
    refused = dict(row, status=429, body=None)
    assert len(verify([row, wrong, refused], small_index, log)) == 2


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},
        {"id": 4, "parent": 2, "start": 1.0, "end": 2.0},
    ]
    assert self_times(spans) == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_window_metrics_cover_the_whole_window():
    def row(phase, ms, kind="recommend", status=200):
        return {"phase": phase, "kind": kind, "status": status, "ms": ms}

    rows = [row("warmup", 50.0)] + [row("window", float(ms)) for ms in range(1, 11)]
    rows += [row("window", 7.0, kind="interaction"), row("window", 9.0, status=429)]
    metrics = run._window_metrics(rows, {"seconds": 2.0, "server_cpu_s": 0.024})
    assert metrics["recommend_p50_ms"] == (5.0, "ms")
    assert metrics["recommend_p90_ms"] == (9.0, "ms")
    assert metrics["throughput_rps"] == (5.5, "ops/s")  # 11 answered in 2 s
    assert metrics["server_cpu_ms_per_op"][0] == pytest.approx(2.0)  # 24 ms over 12


def test_scan_keys_never_repeat_and_keep_their_depth_mix():
    from workloads import SCAN_DEPTHS, TOP_K, operations

    videos = [f"v{i}" for i in range(50)]
    stream = operations(WORKLOADS["cold_scan"], 7, videos)
    keys = [next(stream) for _ in range(len(videos) * SCAN_DEPTHS)]
    assert len(set(keys)) == len(keys)
    depths = [top_k for _, _, top_k in keys]
    middle = TOP_K + (SCAN_DEPTHS - 1) / 2
    # However far a run gets, the depths it asked for centre on the same value.
    for prefix in (100, 300, 1000):
        assert abs(sum(depths[:prefix]) / prefix - middle) < 2.0
