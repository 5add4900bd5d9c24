"""Persistence for built community indexes.

Re-extracting signatures for a large community takes minutes; loading the
extracted state takes milliseconds.  This module serialises the expensive,
deterministic parts of a :class:`~repro.core.pipeline.CommunityIndex` —
the signature series, global features and the **live social state** (the
descriptors plus the ``up_to_month`` comment watermark, which may have
diverged from the dataset's historical log under online maintenance) —
together with the dataset, configuration, store revisions and the WAL
watermark, and rebuilds the cheap derived structures (UIG partition, hash
table, SAR vectors, inverted file, LSB forest) on load.

Loads return a :class:`~repro.core.pipeline.LiveCommunityIndex`, so a
restored snapshot can keep ingesting and retiring right away.

Format: gzipped JSON (arrays here are small; the payload stays portable
and diffable).  The archive is an **envelope** carrying a CRC32 of the
canonical payload encoding; writes go to a temp file that is fsynced and
atomically renamed over the destination, so a crash mid-save can never
destroy the previous snapshot, and a flipped byte can never be served as
truth.  Failures raise the typed :mod:`repro.errors` hierarchy instead of
raw ``gzip``/``json`` tracebacks.
"""

from __future__ import annotations

import gzip
import json
import pathlib
import zlib
from dataclasses import asdict

import numpy as np

from repro.community.models import DEFAULT_UP_TO_MONTH
from repro.core.config import RecommenderConfig
from repro.core.pipeline import CommunityIndex, GlobalFeatures, LiveCommunityIndex
from repro.core.stores import ContentStore, SocialStore
from repro.errors import SnapshotCorruptionError
from repro.io.atomic import atomic_write_bytes
from repro.io.serialize import (
    SCHEMA_VERSION,
    check_schema,
    dataset_from_dict,
    dataset_to_dict,
)
from repro.signatures.cuboid import CuboidSignature
from repro.signatures.series import SignatureSeries
from repro.social.descriptor import SocialDescriptor
from repro.testing.faults import FaultPlan

__all__ = ["save_index", "load_index"]

#: Scan-engine options older snapshots stored in their config; the scan
#: they selected no longer exists, so loading ignores them.
_RETIRED_CONFIG_KEYS = ("num_workers", "scan_dtype", "prune")


def series_to_dict(series: SignatureSeries) -> list[dict]:
    """Serialise a signature series (shared with the WAL's ingest records)."""
    return [
        {"values": signature.values.tolist(), "weights": signature.weights.tolist()}
        for signature in series
    ]


def series_from_dict(video_id: str, entries: list[dict]) -> SignatureSeries:
    """Inverse of :func:`series_to_dict`."""
    return SignatureSeries(
        video_id=video_id,
        signatures=tuple(
            CuboidSignature(
                values=np.asarray(entry["values"]),
                weights=np.asarray(entry["weights"]),
            )
            for entry in entries
        ),
    )


def features_to_dict(features: GlobalFeatures) -> dict:
    """Serialise one video's global features (shared with the WAL)."""
    return {
        "histogram": features.histogram.tolist(),
        "envelope": features.envelope.tolist(),
        "tokens": sorted(features.tokens),
    }


def features_from_dict(entry: dict) -> GlobalFeatures:
    """Inverse of :func:`features_to_dict`."""
    return GlobalFeatures(
        histogram=np.asarray(entry["histogram"]),
        envelope=np.asarray(entry["envelope"]),
        tokens=frozenset(entry["tokens"]),
    )


def _canonical(payload: dict) -> bytes:
    """The checksummed encoding: sorted keys, no whitespace, UTF-8."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _index_payload(index: CommunityIndex) -> dict:
    config = asdict(index.config)
    config["embedding_range"] = list(config["embedding_range"])
    return {
        "dataset": dataset_to_dict(index.dataset),
        "config": config,
        "series": {
            video_id: series_to_dict(series)
            for video_id, series in index.series.items()
        },
        "features": {
            video_id: features_to_dict(features)
            for video_id, features in index.features.items()
        },
        "has_lsb": index.lsb is not None,
        # Live social state: what the index actually serves, which under
        # online maintenance is NOT re-derivable from the dataset log.
        "social": {
            "up_to_month": index.up_to_month,
            "descriptors": {
                video_id: sorted(descriptor.users)
                for video_id, descriptor in index.social_store.descriptors.items()
            },
        },
        "revisions": list(index.revisions),
        "wal_seq": int(getattr(index, "wal_seq", 0)),
    }


def save_index(
    index: CommunityIndex,
    path: str | pathlib.Path,
    faults: FaultPlan | None = None,
) -> None:
    """Serialise *index* (dataset + config + features + social state).

    The write is atomic (temp file + fsync + ``os.replace``): a crash at
    any instant leaves the previous archive intact.  The payload CRC32 is
    embedded in the envelope, so any later bit rot is detected at load
    time.  The gzip stream is built with ``mtime=0``, making archives of
    identical state byte-identical.
    """
    payload = _index_payload(index)
    # The checksum covers the canonical payload encoding; the loader
    # re-canonicalises after parsing, so JSON round-trip stability (repr
    # floats, sorted keys) is the only property this relies on.
    envelope = {
        "kind": "community-index",
        "schema": SCHEMA_VERSION,
        "crc32": zlib.crc32(_canonical(payload)),
        "payload": payload,
    }
    atomic_write_bytes(
        pathlib.Path(path), gzip.compress(_canonical(envelope), mtime=0), faults
    )


def _read_archive(path: pathlib.Path) -> dict:
    """Decompress + parse an archive, mapping failures to typed errors."""
    try:
        with gzip.open(path, "rb") as handle:
            raw = handle.read()
    except FileNotFoundError:
        raise
    except (OSError, EOFError, zlib.error) as error:
        raise SnapshotCorruptionError(f"unreadable snapshot {path}: {error}") from error
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotCorruptionError(
            f"snapshot {path} is not valid JSON: {error}"
        ) from error
    if not isinstance(document, dict):
        raise SnapshotCorruptionError(f"snapshot {path} holds no JSON object")
    return document


def _verified_payload(path: pathlib.Path, document: dict) -> dict:
    """Unwrap the checksummed envelope (tolerating pre-envelope archives)."""
    if "payload" not in document:
        # Legacy (pre-durability) archive: the payload is the document,
        # kind/schema live inside it, and there is no checksum to verify.
        return document
    payload = document["payload"]
    if not isinstance(payload, dict):
        raise SnapshotCorruptionError(f"snapshot {path} has a malformed payload")
    stored = document.get("crc32")
    actual = zlib.crc32(_canonical(payload))
    if stored != actual:
        raise SnapshotCorruptionError(
            f"snapshot {path} failed its checksum "
            f"(stored crc32={stored!r}, computed {actual}); refusing to serve "
            "corrupt state"
        )
    payload = dict(payload)
    payload.setdefault("kind", document.get("kind"))
    payload.setdefault("schema", document.get("schema"))
    return payload


def load_index(
    path: str | pathlib.Path, up_to_month: int | None = None
) -> LiveCommunityIndex:
    """Rebuild a :class:`LiveCommunityIndex` from a :func:`save_index` archive.

    The stored signature series, global features and social descriptors are
    injected instead of re-extracted; derived structures (social index, SAR
    dictionaries, LSB forest) are rebuilt deterministically from them.

    ``up_to_month=None`` (the default) restores the snapshot's saved
    watermark and descriptors exactly.  Passing an explicit month discards
    the saved social state and re-derives descriptors from the dataset's
    comment log through that month instead.

    Raises
    ------
    FileNotFoundError
        When *path* does not exist.
    SnapshotCorruptionError
        On a truncated/garbled gzip stream, undecodable JSON, checksum
        mismatch, or a payload of the wrong kind.
    SchemaMismatchError
        On an archive from an incompatible schema major version.
    """
    path = pathlib.Path(path)
    payload = _verified_payload(path, _read_archive(path))
    if payload.get("kind") != "community-index":
        raise SnapshotCorruptionError(
            f"not a community index payload: kind={payload.get('kind')!r}"
        )
    check_schema(payload)

    dataset = dataset_from_dict(payload["dataset"])
    config_dict = dict(payload["config"])
    for key in _RETIRED_CONFIG_KEYS:
        config_dict.pop(key, None)
    config_dict["embedding_range"] = tuple(config_dict["embedding_range"])
    config = RecommenderConfig(**config_dict)

    features = {
        video_id: features_from_dict(entry)
        for video_id, entry in payload["features"].items()
    }
    content = ContentStore(
        config,
        build_lsb=payload.get("has_lsb", False),
        build_global_features=bool(features),
    )
    for video_id in sorted(payload["series"]):
        content.add_series(
            video_id,
            series_from_dict(video_id, payload["series"][video_id]),
            features.get(video_id),
        )

    social_payload = payload.get("social")
    if up_to_month is not None or social_payload is None:
        # Explicit watermark (or a pre-watermark archive): re-derive the
        # social state from the dataset's historical comment log.
        watermark = DEFAULT_UP_TO_MONTH if up_to_month is None else up_to_month
        descriptors = dataset.descriptors(up_to_month=watermark)
    else:
        watermark = int(social_payload["up_to_month"])
        descriptors = {
            video_id: SocialDescriptor.from_users(video_id, users)
            for video_id, users in social_payload["descriptors"].items()
        }
    social_store = SocialStore(
        descriptors,
        k=config.k,
        uig_pair_cap=config.uig_pair_cap,
        up_to_month=watermark,
        sketch_bits=config.sketch_bits,
        sketch_seed=config.sketch_seed,
    )

    # Restore the staleness clocks so consumers spanning a save/load cycle
    # (same process, e.g. A/B harnesses) never see a revision go backwards.
    saved_revisions = payload.get("revisions")
    if saved_revisions is not None:
        content.restore_revision(int(saved_revisions[0]))
        social_store.restore_revision(int(saved_revisions[1]))

    index = LiveCommunityIndex._from_parts(dataset, config, content, social_store)
    index.wal_seq = int(payload.get("wal_seq", 0))
    return index
