"""Tests for dataset and index persistence."""

import gzip
import json
import zlib

import numpy as np
import pytest

from repro.community import CommunityConfig, generate_community
from repro.core import CommunityIndex, RecommenderConfig, csf_sar_h_recommender
from repro.errors import SchemaMismatchError, SnapshotCorruptionError
from repro.io import (
    SCHEMA_VERSION,
    dataset_from_dict,
    dataset_to_dict,
    load_dataset,
    load_index,
    save_dataset,
    save_index,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_community(CommunityConfig(hours=2.0, seed=33))


class TestDatasetRoundtrip:
    def test_dict_roundtrip_preserves_everything(self, dataset):
        restored = dataset_from_dict(dataset_to_dict(dataset))
        assert restored.records == dataset.records
        assert restored.users == dataset.users
        assert restored.comments == dataset.comments
        assert restored.topics == dataset.topics
        assert restored.clip_params == dataset.clip_params

    def test_clips_rematerialise_identically(self, dataset):
        restored = dataset_from_dict(dataset_to_dict(dataset))
        video_id = sorted(dataset.records)[0]
        assert np.array_equal(
            restored.clip(video_id).frames, dataset.clip(video_id).frames
        )

    def test_file_roundtrip_gzipped(self, dataset, tmp_path):
        path = tmp_path / "community.json.gz"
        save_dataset(dataset, path)
        restored = load_dataset(path)
        assert restored.records == dataset.records
        assert path.stat().st_size > 0

    def test_file_roundtrip_plain_json(self, dataset, tmp_path):
        path = tmp_path / "community.json"
        save_dataset(dataset, path)
        # Plain JSON is human-readable.
        payload = json.loads(path.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert load_dataset(path).comments == dataset.comments

    def test_wrong_kind_rejected(self, dataset):
        payload = dataset_to_dict(dataset)
        payload["kind"] = "something-else"
        with pytest.raises(ValueError, match="not a community dataset"):
            dataset_from_dict(payload)

    def test_incompatible_schema_rejected(self, dataset):
        payload = dataset_to_dict(dataset)
        payload["schema"] = "999.0"
        with pytest.raises(ValueError, match="incompatible schema"):
            dataset_from_dict(payload)


class TestIndexRoundtrip:
    @pytest.fixture(scope="class")
    def built(self, dataset):
        return CommunityIndex(dataset, RecommenderConfig(k=8))

    def test_roundtrip_preserves_series(self, built, tmp_path):
        path = tmp_path / "index.json.gz"
        save_index(built, path)
        restored = load_index(path)
        assert set(restored.series) == set(built.series)
        for video_id in built.series:
            for original, loaded in zip(built.series[video_id], restored.series[video_id]):
                assert np.allclose(original.values, loaded.values)
                assert np.allclose(original.weights, loaded.weights)

    def test_roundtrip_preserves_features(self, built, tmp_path):
        path = tmp_path / "index.json.gz"
        save_index(built, path)
        restored = load_index(path)
        for video_id in built.features:
            assert np.allclose(
                built.features[video_id].histogram,
                restored.features[video_id].histogram,
            )
            assert built.features[video_id].tokens == restored.features[video_id].tokens

    def test_roundtrip_preserves_config_and_lsb(self, built, tmp_path):
        path = tmp_path / "index.json.gz"
        save_index(built, path)
        restored = load_index(path)
        assert restored.config == built.config
        assert restored.lsb is not None
        assert len(restored.lsb) == len(built.lsb)

    def test_loaded_index_recommends_identically(self, built, tmp_path):
        path = tmp_path / "index.json.gz"
        save_index(built, path)
        restored = load_index(path)
        query = built.video_ids[0]
        assert (
            csf_sar_h_recommender(built).recommend(query, 5)
            == csf_sar_h_recommender(restored).recommend(query, 5)
        )

    def test_snapshot_with_retired_scan_options_loads(self, built, tmp_path):
        # Snapshots written before the scan options were retired still
        # carry them in their stored config.
        path = tmp_path / "index.json.gz"
        save_index(built, path)
        document = json.loads(gzip.decompress(path.read_bytes()))
        document["payload"]["config"].update(
            num_workers=2, scan_dtype="float64", prune=False
        )
        document["crc32"] = zlib.crc32(
            json.dumps(
                document["payload"], sort_keys=True, separators=(",", ":")
            ).encode()
        )
        path.write_bytes(gzip.compress(json.dumps(document).encode()))
        restored = load_index(path)
        assert restored.config == built.config
        query = built.video_ids[0]
        assert csf_sar_h_recommender(restored).recommend(
            query, 5
        ) == csf_sar_h_recommender(built).recommend(query, 5)

    def test_wrong_kind_rejected(self, dataset, tmp_path):
        path = tmp_path / "dataset.json.gz"
        save_dataset(dataset, path)
        with pytest.raises(ValueError, match="not a community index"):
            load_index(path)


class TestSnapshotCorruption:
    @pytest.fixture(scope="class")
    def archive(self, dataset, tmp_path_factory):
        path = tmp_path_factory.mktemp("corruption") / "index.json.gz"
        save_index(CommunityIndex(dataset, RecommenderConfig(k=8)), path)
        return path

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "absent.json.gz")

    def test_truncated_gzip_raises_typed_error(self, archive, tmp_path):
        stunted = tmp_path / "truncated.json.gz"
        stunted.write_bytes(archive.read_bytes()[: archive.stat().st_size // 2])
        with pytest.raises(SnapshotCorruptionError, match="unreadable snapshot"):
            load_index(stunted)

    def test_flipped_payload_byte_fails_checksum(self, archive, tmp_path):
        document = json.loads(gzip.decompress(archive.read_bytes()))
        # Silent bit rot: change the payload without touching the stored
        # CRC (a watermark of 99 parses fine but was never written).
        document["payload"]["social"]["up_to_month"] = 99
        flipped = tmp_path / "flipped.json.gz"
        flipped.write_bytes(gzip.compress(json.dumps(document).encode()))
        with pytest.raises(SnapshotCorruptionError, match="checksum"):
            load_index(flipped)

    def test_flipped_compressed_byte_raises_typed_error(self, archive, tmp_path):
        raw = bytearray(archive.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        flipped = tmp_path / "flipped.json.gz"
        flipped.write_bytes(bytes(raw))
        with pytest.raises(SnapshotCorruptionError):
            load_index(flipped)

    def test_future_major_schema_raises_typed_error(self, archive, tmp_path):
        document = json.loads(gzip.decompress(archive.read_bytes()))
        document["schema"] = "999.0"
        document["payload"]["schema"] = "999.0"
        document["crc32"] = zlib.crc32(
            json.dumps(
                document["payload"], sort_keys=True, separators=(",", ":")
            ).encode()
        )
        future = tmp_path / "future.json.gz"
        future.write_bytes(gzip.compress(json.dumps(document).encode()))
        with pytest.raises(SchemaMismatchError, match="incompatible schema"):
            load_index(future)

    def test_typed_errors_are_value_errors(self):
        # Backward compatibility: callers catching ValueError keep working.
        assert issubclass(SnapshotCorruptionError, ValueError)
        assert issubclass(SchemaMismatchError, ValueError)

    def test_identical_state_saves_byte_identical_archives(self, dataset, tmp_path):
        built = CommunityIndex(dataset, RecommenderConfig(k=8))
        first, second = tmp_path / "a.json.gz", tmp_path / "b.json.gz"
        save_index(built, first)
        save_index(built, second)
        assert first.read_bytes() == second.read_bytes()

    def test_save_leaves_no_temp_files(self, dataset, tmp_path):
        built = CommunityIndex(dataset, RecommenderConfig(k=8))
        save_index(built, tmp_path / "index.json.gz")
        assert [p.name for p in tmp_path.iterdir()] == ["index.json.gz"]


class TestLiveStateRoundtrip:
    def test_watermark_round_trips(self, dataset, tmp_path):
        built = CommunityIndex(dataset, RecommenderConfig(k=8), up_to_month=14)
        path = tmp_path / "index.json.gz"
        save_index(built, path)
        restored = load_index(path)
        assert restored.up_to_month == 14
        # The watermark shapes the descriptors, so parity must hold too.
        query = built.video_ids[0]
        assert (
            csf_sar_h_recommender(built).recommend(query, 5)
            == csf_sar_h_recommender(restored).recommend(query, 5)
        )

    def test_explicit_watermark_overrides_snapshot(self, dataset, tmp_path):
        built = CommunityIndex(dataset, RecommenderConfig(k=8), up_to_month=14)
        path = tmp_path / "index.json.gz"
        save_index(built, path)
        rederived = load_index(path, up_to_month=11)
        assert rederived.up_to_month == 11
        reference = CommunityIndex(dataset, RecommenderConfig(k=8), up_to_month=11)
        for video_id in reference.video_ids:
            assert (
                rederived.descriptor(video_id).users
                == reference.descriptor(video_id).users
            )

    def test_live_descriptors_survive_roundtrip(self, dataset, tmp_path):
        from repro.core import LiveCommunityIndex

        live = LiveCommunityIndex(dataset, RecommenderConfig(k=8))
        target = live.video_ids[0]
        live.apply_comments([(f"late_user_{i}", target) for i in range(4)])
        path = tmp_path / "index.json.gz"
        save_index(live, path)
        restored = load_index(path)
        assert restored.descriptor(target).users == live.descriptor(target).users
        query = live.video_ids[1]
        assert (
            csf_sar_h_recommender(live).recommend(query, 5)
            == csf_sar_h_recommender(restored).recommend(query, 5)
        )

    def test_revisions_do_not_regress_after_load(self, dataset, tmp_path):
        from repro.core import LiveCommunityIndex

        live = LiveCommunityIndex(dataset, RecommenderConfig(k=8))
        live.retire_video(live.video_ids[-1])
        live.apply_comments([("someone", live.video_ids[0])])
        path = tmp_path / "index.json.gz"
        save_index(live, path)
        restored = load_index(path)
        assert restored.revisions[0] >= live.revisions[0]
        assert restored.revisions[1] >= live.revisions[1]

    def test_loaded_index_is_live(self, dataset, tmp_path):
        built = CommunityIndex(dataset, RecommenderConfig(k=8))
        path = tmp_path / "index.json.gz"
        save_index(built, path)
        restored = load_index(path)
        victim = restored.video_ids[-1]
        restored.retire_video(victim)
        assert victim not in restored.video_ids
        assert victim not in restored.signature_bank().video_ids
