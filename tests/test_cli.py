"""Tests for the command-line interface."""

import shutil

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "community.json.gz"
    assert main(["generate", str(path), "--hours", "2", "--seed", "5"]) == 0
    return path


@pytest.fixture(scope="module")
def index_path(dataset_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-index") / "index.json.gz"
    assert main(["index", str(dataset_path), str(path), "--k", "8"]) == 0
    return path


@pytest.fixture(scope="module")
def deployment_path(dataset_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-deployment") / "deployment"
    assert (
        main(["index", str(dataset_path), str(path), "--k", "8", "--shards", "2"])
        == 0
    )
    return path


@pytest.fixture
def master_path(index_path):
    """The index the kind-agnostic cases run over: the snapshot file here,
    a deployment in the ``...OnADeployment`` subclasses."""
    return index_path


class _OnADeployment:
    """Reruns a test class's cases over a private copy of a 2-shard
    deployment (ingest appends to the deployment's own per-shard WALs)."""

    @pytest.fixture
    def master_path(self, deployment_path, tmp_path):
        copy = tmp_path / "deployment"
        shutil.copytree(deployment_path, copy)
        return copy


def _open(path):
    """The index at *path* (a snapshot file or a recovered deployment)."""
    from repro.sharding import open_master

    return open_master(path)


def _like(master_path, tmp_path, stem):
    """An output path of the same kind as *master_path*."""
    return tmp_path / (f"{stem}.json.gz" if master_path.is_file() else stem)


def _shard_bytes(deployment):
    """The bytes of every per-shard snapshot of *deployment*, in order."""
    shards = sorted(deployment.glob("shard-*.idx.gz"))
    assert shards, f"no shard snapshots under {deployment}"
    return [shard.read_bytes() for shard in shards]


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.json.gz"])
        assert args.hours == 10.0
        assert args.seed == 2015

    def test_recommend_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recommend", "i", "v", "--method", "bogus"])


class TestGenerate:
    def test_creates_file(self, dataset_path):
        assert dataset_path.exists()
        assert dataset_path.stat().st_size > 0

    def test_output_loadable(self, dataset_path):
        from repro.io import load_dataset

        dataset = load_dataset(dataset_path)
        assert dataset.num_videos == 24


class TestIndex:
    def test_creates_index(self, index_path):
        assert index_path.exists()


class TestRecommend:
    def test_recommend_prints_ranked_list(self, index_path, capsys):
        from repro.io import load_index

        video = load_index(index_path).video_ids[0]
        assert main(["recommend", str(index_path), video, "--top-k", "5"]) == 0
        output = capsys.readouterr().out
        assert "query" in output
        assert output.count(". v") == 5

    def test_unknown_video_fails(self, index_path, capsys):
        assert main(["recommend", str(index_path), "ghost"]) == 2
        assert "unknown video" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["csf", "cr", "sr", "knn", "affrf"])
    def test_all_methods_run(self, index_path, method, capsys):
        from repro.io import load_index

        video = load_index(index_path).video_ids[0]
        assert main(["recommend", str(index_path), video, "--method", method, "--top-k", "3"]) == 0


class TestExplain:
    def test_explains_pair(self, index_path, capsys):
        from repro.io import load_index

        ids = load_index(index_path).video_ids
        assert main(["explain", str(index_path), ids[0], ids[1]]) == 0
        output = capsys.readouterr().out
        assert "scored" in output

    def test_unknown_candidate_fails(self, index_path, capsys):
        from repro.io import load_index

        video = load_index(index_path).video_ids[0]
        assert main(["explain", str(index_path), video, "ghost"]) == 2


class TestIngest:
    def test_retire_and_apply_comments(self, master_path, tmp_path, capsys):
        before = _open(master_path)
        victim = before.video_ids[-1]
        out = _like(master_path, tmp_path, "updated")
        assert (
            main(
                [
                    "ingest",
                    str(master_path),
                    str(out),
                    "--retire",
                    victim,
                    "--apply-months",
                    "12-15",
                ]
            )
            == 0
        )
        assert "retired 1" in capsys.readouterr().out
        updated = _open(out)
        assert victim not in updated.video_ids
        assert len(updated.video_ids) == len(before.video_ids) - 1
        assert updated.up_to_month == 15

    def test_add_requires_source_dataset(self, master_path, tmp_path, capsys):
        out = _like(master_path, tmp_path, "updated")
        assert main(["ingest", str(master_path), str(out), "--add", "v00001"]) == 2
        assert "--add-from" in capsys.readouterr().err

    def test_add_round_trips_video(self, dataset_path, master_path, tmp_path):
        # Retire a video, then re-add it from the source dataset.
        first = _like(master_path, tmp_path, "without")
        second = _like(master_path, tmp_path, "with")
        victim = _open(master_path).video_ids[0]
        assert main(["ingest", str(master_path), str(first), "--retire", victim]) == 0
        assert (
            main(
                [
                    "ingest",
                    str(first),
                    str(second),
                    "--add",
                    victim,
                    "--add-from",
                    str(dataset_path),
                ]
            )
            == 0
        )
        restored = _open(second)
        assert victim in restored.video_ids


class TestIngestOnADeployment(_OnADeployment, TestIngest):
    """Retire, apply-months and the ``--add`` round trip on a deployment."""

class TestTypedErrorExits:
    def test_missing_index_exits_with_one_line(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.json.gz"
        assert main(["recommend", str(missing), "v00001"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_missing_index_for_ingest_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.json.gz"
        out = tmp_path / "out.json.gz"
        assert main(["ingest", str(missing), str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_corrupt_index_exits_with_typed_error(self, index_path, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.json.gz"
        corrupt.write_bytes(index_path.read_bytes()[:200])
        assert main(["recommend", str(corrupt), "v00001"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "snapshot" in err

    def test_missing_snapshot_for_recover_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nowhere.json.gz"
        assert (
            main(
                [
                    "recover",
                    str(missing),
                    str(tmp_path / "log.jsonl"),
                    str(tmp_path / "out.json.gz"),
                ]
            )
            == 2
        )
        assert capsys.readouterr().err.startswith("error:")

    def test_wal_flag_on_a_deployment_exits_2(
        self, deployment_path, tmp_path, capsys
    ):
        out = tmp_path / "out"
        wal = tmp_path / "log.jsonl"
        argv = ["ingest", str(deployment_path), str(out), "--wal", str(wal)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()
        assert not wal.exists()

    def test_deployment_with_a_wal_argument_exits_2(
        self, deployment_path, tmp_path, capsys
    ):
        out = tmp_path / "out"
        wal = tmp_path / "log.jsonl"
        assert main(["recover", str(deployment_path), str(wal), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_snapshot_without_a_wal_argument_exits_2(
        self, index_path, tmp_path, capsys
    ):
        out = tmp_path / "out.json.gz"
        assert main(["recover", str(index_path), str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()


class TestWalAndRecover:
    def test_ingest_with_wal_then_recover_round_trips(
        self, index_path, tmp_path, capsys
    ):
        from repro.io import load_index

        updated = tmp_path / "updated.json.gz"
        recovered = tmp_path / "recovered.json.gz"
        wal = tmp_path / "log.jsonl"
        victim = load_index(index_path).video_ids[-1]
        assert (
            main(
                [
                    "ingest",
                    str(index_path),
                    str(updated),
                    "--retire",
                    victim,
                    "--apply-months",
                    "12-13",
                    "--wal",
                    str(wal),
                ]
            )
            == 0
        )
        assert "wal seq" in capsys.readouterr().out
        assert wal.exists()
        # Recover from the PRE-ingest snapshot: the WAL alone must carry
        # the session to the exact same state the ingest saved.
        assert main(["recover", str(index_path), str(wal), str(recovered)]) == 0
        assert "replayed" in capsys.readouterr().out
        assert recovered.read_bytes() == updated.read_bytes()

    def test_recover_without_wal_reproduces_snapshot(self, index_path, tmp_path, capsys):
        from repro.io import load_index

        out = tmp_path / "recovered.json.gz"
        absent = tmp_path / "never-written.jsonl"
        assert main(["recover", str(index_path), str(absent), str(out)]) == 0
        assert "replayed 0" in capsys.readouterr().out
        assert load_index(out).video_ids == load_index(index_path).video_ids

    def test_degraded_recommend_prints_note(self, index_path, tmp_path, capsys, monkeypatch):
        from repro.core.stores import SocialStore
        from repro.io import load_index

        video = load_index(index_path).video_ids[0]
        monkeypatch.setattr(SocialStore, "available", property(lambda self: False))
        assert main(["recommend", str(index_path), video, "--top-k", "3"]) == 0
        captured = capsys.readouterr()
        assert "degraded serving" in captured.err
        assert captured.out.count(". v") == 3


class TestWalAndRecoverOnADeployment(_OnADeployment, TestWalAndRecover):
    """The round trips over a deployment, which journals to (and
    recovers from) its own per-shard WALs: ``recover DEPLOYMENT OUTPUT``."""

    # `recommend` serves snapshot files only.
    test_degraded_recommend_prints_note = None

    def test_ingest_with_wal_then_recover_round_trips(
        self, master_path, tmp_path, capsys
    ):
        updated = tmp_path / "updated"
        recovered = tmp_path / "recovered"
        victim = _open(master_path).video_ids[-1]
        argv = ["ingest", str(master_path), str(updated), "--retire", victim]
        assert main([*argv, "--apply-months", "12-13"]) == 0
        assert "wal seq" in capsys.readouterr().out
        # Recover from the PRE-ingest snapshots: the per-shard WALs alone
        # must carry the session to the exact state the ingest saved.
        assert main(["recover", str(master_path), str(recovered)]) == 0
        assert "replayed" in capsys.readouterr().out
        assert _shard_bytes(recovered) == _shard_bytes(updated)

    def test_recover_without_wal_reproduces_snapshot(
        self, master_path, tmp_path, capsys
    ):
        out = tmp_path / "recovered"
        assert main(["recover", str(master_path), str(out)]) == 0
        assert "replayed 0" in capsys.readouterr().out
        assert _open(out).video_ids == _open(master_path).video_ids

class TestEvaluate:
    def test_reports_table(self, index_path, capsys):
        assert main(["evaluate", str(index_path), "--methods", "cr,sr"]) == 0
        output = capsys.readouterr().out
        assert "CR" in output
        assert "SR" in output
        assert "MAP@20" in output


class TestStats:
    def test_prometheus_output_by_default(self, master_path, capsys):
        assert main(["stats", str(master_path), "--queries", "2"]) == 0
        output = capsys.readouterr().out
        assert "# TYPE repro_queries_total counter" in output
        assert "# TYPE repro_index_videos gauge" in output
        assert "repro_query_seconds_bucket" in output

    def test_output_parses_back_to_snapshot(self, index_path, capsys):
        from repro.obs import parse_prometheus

        assert main(["stats", str(index_path), "--queries", "1"]) == 0
        snapshot = parse_prometheus(capsys.readouterr().out)
        assert snapshot["counters"]['repro_queries_total{engine="batch"}'] == 1
        assert snapshot["gauges"]["repro_index_videos"] == 24

    def test_json_format(self, master_path, capsys):
        import json

        assert main(["stats", str(master_path), "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert set(snapshot) == {"counters", "gauges", "histograms"}

    def test_output_file_written(self, master_path, tmp_path, capsys):
        import json

        out = tmp_path / "metrics.json"
        assert main(["stats", str(master_path), "--output", str(out)]) == 0
        capsys.readouterr()
        snapshot = json.loads(out.read_text())
        assert "repro_index_videos" in snapshot["gauges"]

    def test_zero_queries_still_reports_gauges(self, master_path, capsys):
        assert main(["stats", str(master_path), "--queries", "0"]) == 0
        output = capsys.readouterr().out
        assert "repro_index_videos" in output
        assert "repro_queries_total" not in output


class TestStatsOnADeployment(_OnADeployment, TestStats):
    def test_output_parses_back_to_snapshot(self, master_path, capsys):
        from repro.obs import parse_prometheus

        assert main(["stats", str(master_path), "--queries", "1"]) == 0
        output = capsys.readouterr().out
        assert "repro_index_shards 2" in output
        assert 'repro_shard_videos{shard="1"}' in output
        assert "repro_sharded_memo_hit_total" in output
        snapshot = parse_prometheus(output)
        # Each shard scans its slice once; the repeat pass hits the memo.
        assert snapshot["counters"]['repro_queries_total{engine="batch"}'] == 2
        assert snapshot["gauges"]["repro_index_videos"] == 24

class TestTrace:
    def test_trace_flag_prints_span_tree(self, index_path, capsys):
        from repro.io import load_index

        video = load_index(index_path).video_ids[0]
        assert main(["recommend", str(index_path), video, "--trace"]) == 0
        output = capsys.readouterr().out
        assert "recommend" in output
        for stage in ("candidates", "content_scores", "fuse_topk"):
            assert stage in output
        assert "%" in output

    def test_trace_unsupported_method_notes_and_succeeds(self, index_path, capsys):
        from repro.io import load_index

        video = load_index(index_path).video_ids[0]
        assert main(
            ["recommend", str(index_path), video, "--method", "knn", "--trace"]
        ) == 0
        captured = capsys.readouterr()
        assert "trace" in captured.err
        assert captured.out.count(". v") > 0


class TestKeyErrorExit:
    def test_unknown_evaluate_method_exits_2(self, index_path, capsys):
        assert main(["evaluate", str(index_path), "--methods", "cr,bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bogus" in err
        assert len(err.strip().splitlines()) == 1

    def test_escaping_keyerror_maps_to_exit_2(self, index_path, capsys, monkeypatch):
        from repro.core.recommender import FusionRecommender
        from repro.io import load_index

        video = load_index(index_path).video_ids[0]

        def explode(self, *args, **kwargs):
            raise KeyError(f"{video} vanished mid-query")

        monkeypatch.setattr(FusionRecommender, "recommend", explode)
        assert main(["recommend", str(index_path), video]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "vanished mid-query" in err
        assert len(err.strip().splitlines()) == 1


class TestDeadline:
    def test_deadline_partial_exits_zero_with_note(self, index_path, capsys, monkeypatch):
        import repro.core.recommender as recommender_module
        from repro.io import load_index

        # Shrink the budget chunk so even this small index spans several
        # chunks and a tiny deadline genuinely cuts the scan short.
        monkeypatch.setattr(recommender_module, "_BUDGET_CHUNK", 4)
        video = load_index(index_path).video_ids[0]
        assert main(
            ["recommend", str(index_path), video, "--top-k", "3",
             "--deadline-ms", "0.001"]
        ) == 0
        captured = capsys.readouterr()
        assert "partial ranking" in captured.err
        assert "deadline" in captured.err
        assert captured.out.count(". v") == 3

    def test_generous_deadline_prints_no_note(self, index_path, capsys):
        from repro.io import load_index

        video = load_index(index_path).video_ids[0]
        assert main(
            ["recommend", str(index_path), video, "--deadline-ms", "60000"]
        ) == 0
        assert "partial" not in capsys.readouterr().err

    def test_deadline_unsupported_method_notes_and_succeeds(self, index_path, capsys):
        from repro.io import load_index

        video = load_index(index_path).video_ids[0]
        assert main(
            ["recommend", str(index_path), video, "--method", "knn",
             "--deadline-ms", "5", "--top-k", "3"]
        ) == 0
        captured = capsys.readouterr()
        assert "deadline-ms" in captured.err
        assert captured.out.count(". v") == 3


class TestFaults:
    def test_list_prints_every_registered_point(self, capsys):
        assert main(["faults", "--list"]) == 0
        output = capsys.readouterr().out
        for point in (
            "wal.before_append",
            "wal.torn_append",
            "wal.before_fsync",
            "wal.after_append",
            "snapshot.before_write",
            "snapshot.torn_write",
            "snapshot.before_replace",
            "snapshot.after_replace",
            "serve.social_scores",
            "serve.publish_epoch",
        ):
            assert point in output, point
        assert "InjectedCrashError" in output
        assert "InjectedFaultError" in output
        assert "OverloadedError" in output

    def test_without_list_exits_2(self, capsys):
        assert main(["faults"]) == 2
        assert "faults --list" in capsys.readouterr().err


class TestServeSoak:
    def test_short_soak_reports_ok(self, tmp_path, capsys):
        out = tmp_path / "soak.json"
        assert main(
            ["serve-soak", "--queries", "160", "--writers", "2",
             "--readers", "4", "--seed", "7", "--output", str(out)]
        ) == 0
        captured = capsys.readouterr().out
        assert "soak ok" in captured
        assert "oracle parity" in captured
        import json

        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert report["parity_failures"] == []


class TestOverloadExit:
    def test_overloaded_error_maps_to_typed_exit_2(self, index_path, capsys, monkeypatch):
        from repro.core.recommender import FusionRecommender
        from repro.errors import OverloadedError
        from repro.io import load_index

        video = load_index(index_path).video_ids[0]

        def shed(self, *args, **kwargs):
            raise OverloadedError("admission queue full")

        monkeypatch.setattr(FusionRecommender, "recommend", shed)
        assert main(["recommend", str(index_path), video]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "admission queue full" in err
        assert len(err.strip().splitlines()) == 1
