"""Durability for sharded deployments: per-shard snapshots + WALs.

A sharded deployment lives in one directory::

    deployment/
      manifest.json          # shard count + router kind (plain JSON)
      shard-0.idx.gz         # per-shard snapshot (save_index archive)
      shard-0.wal            # per-shard write-ahead log
      shard-1.idx.gz
      shard-1.wal
      ...

Each shard checkpoints and logs **independently** — the existing
single-index snapshot format already round-trips a shard exactly (it
stores the content subset plus the full replicated descriptor set), and
:func:`repro.io.wal.replay_wal` replays one shard's log onto its loaded
snapshot.  Recovery therefore parallelises trivially: every shard is
``load_index`` + adopt + ``replay_wal`` with no cross-shard ordering, and
:func:`recover_shards` fans the shards out over a thread pool.  The only
cross-shard step is re-deriving the pinned bank layout afterwards, which
is cheap and deterministic (it is a pure function of the recovered
content, so it is *not* persisted).

:func:`open_master` / :func:`save_master` are the one place a path is
told apart: a directory holding a manifest is a :class:`ShardedIndex`,
anything else a single snapshot file.  Both kinds of *master* take the
same mutation calls, so their callers need not ask which they hold.
"""

from __future__ import annotations

import json
import pathlib
from concurrent.futures import ThreadPoolExecutor

from repro.io.atomic import atomic_write_bytes
from repro.io.index_store import load_index, save_index
from repro.io.wal import WriteAheadLog, replay_wal
from repro.sharding.router import make_router
from repro.sharding.shard import ShardedIndex, ShardIndex

__all__ = [
    "attach_wals",
    "companion_path",
    "is_sharded_deployment",
    "open_master",
    "read_manifest",
    "recover_shards",
    "save_master",
    "save_shards",
    "shard_paths",
]

MANIFEST_NAME = "manifest.json"


def shard_paths(
    root: str | pathlib.Path, shard_id: int
) -> tuple[pathlib.Path, pathlib.Path]:
    """``(snapshot, wal)`` paths of *shard_id* under *root*."""
    root = pathlib.Path(root)
    return root / f"shard-{shard_id}.idx.gz", root / f"shard-{shard_id}.wal"


def is_sharded_deployment(path: str | pathlib.Path) -> bool:
    """Whether *path* is a sharded deployment directory."""
    path = pathlib.Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def open_master(path: str | pathlib.Path):
    """Open *path*: :func:`recover_shards` on a deployment (replaying
    every shard's WAL), ``load_index`` on a snapshot file.  Both are
    looked up on their packages at call time, so wrappers installed
    there (the end-to-end benchmark's setup spans) see the call."""
    import repro.io
    import repro.sharding

    if is_sharded_deployment(path):
        return repro.sharding.recover_shards(path)
    return repro.io.load_index(path)


def save_master(master, path: str | pathlib.Path) -> None:
    """Checkpoint *master* to *path*: a deployment directory for a
    :class:`ShardedIndex`, one snapshot file for a single index."""
    if isinstance(master, ShardedIndex):
        save_shards(master, path)
    else:
        save_index(master, path)


def companion_path(path: str | pathlib.Path, name: str) -> pathlib.Path:
    """File *name* of the index at *path*: inside a deployment
    directory, beside a snapshot file as ``<path>.<name>``."""
    path = pathlib.Path(path)
    if is_sharded_deployment(path):
        return path / name
    return path.with_name(f"{path.name}.{name}")


def read_manifest(root: str | pathlib.Path) -> dict:
    """The deployment manifest (raises on a non-sharded *root*)."""
    root = pathlib.Path(root)
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    if manifest.get("kind") != "sharded-index":
        raise ValueError(
            f"not a sharded deployment manifest: kind={manifest.get('kind')!r}"
        )
    return manifest


def save_shards(sharded: ShardedIndex, root: str | pathlib.Path) -> None:
    """Checkpoint every shard of *sharded* under *root* (atomic writes).

    Snapshots embed each shard's ``wal_seq`` watermark, so a later
    :func:`recover_shards` replays only the log suffix past the
    checkpoint.  The manifest is written last — a crash mid-save of a
    fresh deployment leaves no manifest, hence no half-deployment that
    recovery would mistake for a whole one.
    """
    root = pathlib.Path(root)
    root.mkdir(parents=True, exist_ok=True)
    for shard in sharded.shards:
        snapshot, _ = shard_paths(root, shard.shard_id)
        save_index(shard, snapshot)
    manifest = {
        "kind": "sharded-index",
        "shards": sharded.num_shards,
        "router": sharded.router.kind,
    }
    payload = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    atomic_write_bytes(root / MANIFEST_NAME, payload)


def recover_shards(
    root: str | pathlib.Path, max_workers: int | None = None
) -> ShardedIndex:
    """Recover a whole deployment (shards load and replay in parallel).

    Shards share no mutable state until assembly, so recovery fans out
    over a thread pool; the :class:`ShardedIndex` constructor then
    re-derives and pins the global bank layout, restoring bit-parity
    with the single-index oracle.
    """
    root = pathlib.Path(root)
    manifest = read_manifest(root)
    count = int(manifest["shards"])

    def recover_shard(shard_id: int) -> ShardIndex:
        snapshot, wal = shard_paths(root, shard_id)
        shard = ShardIndex._adopt(load_index(snapshot), shard_id, count)
        replay_wal(shard, wal)
        return shard

    with ThreadPoolExecutor(max_workers=max_workers or count) as pool:
        shards = list(pool.map(recover_shard, range(count)))
    router = make_router(manifest["router"], count, shards[0].config)
    return ShardedIndex(shards, router)


def attach_wals(
    sharded: ShardedIndex, root: str | pathlib.Path, faults=None
) -> list[WriteAheadLog]:
    """Open and attach each shard's WAL; returns the logs (caller closes)."""
    root = pathlib.Path(root)
    logs = []
    for shard in sharded.shards:
        _, wal_path = shard_paths(root, shard.shard_id)
        wal = WriteAheadLog(wal_path, faults=faults)
        shard.attach_wal(wal)
        logs.append(wal)
    return logs
