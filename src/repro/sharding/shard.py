"""Sharded community index: partitioned content, replicated social state.

:class:`ShardIndex` is a :class:`~repro.core.pipeline.LiveCommunityIndex`
that owns a **subset** of the community's content (signature series,
global features, LSB forest, signature bank) while holding **all** social
descriptors.  Replicating the social side is what keeps every shard's
scores bit-identical to the single-index oracle: the sub-community
partition, SAR dictionaries and SAR vectors are all derived from the full
descriptor set, so a shard vectorises its candidates exactly as the
unsharded index would.  Comments and watermark advances therefore apply
to *every* shard; only content ingest/retire routes to one owner.

:class:`ShardedIndex` coordinates S shards behind the familiar mutation
API (``ingest_video`` / ``retire_video`` / ``apply_comments`` /
``remove_comments`` / ``advance_watermark`` / ``add_comment_history``)
plus :meth:`ShardedIndex.pin_layout`, which reduces the shards' natural
bank layouts to the global (oracle) layout and pins it everywhere — the
float32 scoring kernel's results depend on the packed width and key
offset, so pinning is what upgrades "same scores up to float error" to
"bitwise the same scores".
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.community.models import (
    DEFAULT_UP_TO_MONTH,
    Comment,
    CommunityDataset,
    VideoRecord,
)
from repro.core.config import RecommenderConfig
from repro.core.pipeline import LiveCommunityIndex, _private_dataset
from repro.core.stores import ContentStore, SocialStore, global_features
from repro.measures.content import SignatureFastPack
from repro.sharding.router import ShardRouter, make_router
from repro.social.descriptor import SocialDescriptor
from repro.video.clip import VideoClip

__all__ = ["ShardIndex", "ShardedIndex"]


class ShardIndex(LiveCommunityIndex):
    """One shard: a live index over partial content + full social state.

    Beyond the inherited maintenance API it adds the two *replica-side*
    mutations the coordinator fans out to non-owner shards —
    :meth:`ingest_social` and :meth:`retire_social` — both WAL-logged so
    each shard recovers independently from its own log.
    """

    shard_id = 0
    num_shards = 1

    @classmethod
    def _adopt(cls, index, shard_id: int, num_shards: int) -> "ShardIndex":
        """Rewrap a loaded :class:`LiveCommunityIndex` as a shard.

        Snapshot loads rebuild a plain live index; adoption reuses its
        stores wholesale (a shard snapshot already carries the partial
        content and the full descriptor set) and restores the shard's
        identity and WAL position.
        """
        shard = cls._from_parts(
            index.dataset, index.config, index.content, index.social_store
        )
        shard.wal_seq = index.wal_seq
        shard.shard_id = int(shard_id)
        shard.num_shards = int(num_shards)
        return shard

    # ------------------------------------------------------------------
    # Replica-side social mutations
    # ------------------------------------------------------------------
    def ingest_social(self, video_id: str, members: Iterable[str]) -> None:
        """Register a non-owned video's social descriptor (WAL-logged)."""
        descriptor = SocialDescriptor.from_users(video_id, members)
        if self._wal is not None:
            self.wal_seq = self._wal.log_social_add(video_id, descriptor.users)
        self.social_store.add_video(descriptor)

    def retire_social(self, video_id: str) -> None:
        """Drop a non-owned video's social descriptor (WAL-logged)."""
        if video_id not in self.social_store.descriptors:
            raise KeyError(f"unknown video {video_id!r}")
        if self._wal is not None:
            self.wal_seq = self._wal.log_social_retire(video_id)
        self.social_store.retire_video(video_id)

    def _validate_comment_target(self, video_id: str) -> None:
        # Comments replicate to every shard; a shard knows every video
        # socially even when another shard owns its content.
        if video_id not in self.social_store.descriptors:
            raise KeyError(f"unknown video {video_id!r}")


def _build_shard(
    dataset: CommunityDataset,
    config: RecommenderConfig,
    shard_id: int,
    num_shards: int,
    owned: list[str],
    extracted: dict,
    up_to_month: int,
    build_lsb: bool,
    build_global_features: bool,
) -> ShardIndex:
    """Assemble one shard from the partition pass's extractions."""
    content = ContentStore(
        config, build_lsb=build_lsb, build_global_features=build_global_features
    )
    for video_id in sorted(owned):
        series, features = extracted[video_id]
        content.add_series(video_id, series, features)
    social = SocialStore(
        dataset.descriptors(up_to_month=up_to_month),
        k=config.k,
        uig_pair_cap=config.uig_pair_cap,
        up_to_month=up_to_month,
        sketch_bits=config.sketch_bits,
        sketch_seed=config.sketch_seed,
    )
    shard = ShardIndex._from_parts(_private_dataset(dataset), config, content, social)
    shard.shard_id = int(shard_id)
    shard.num_shards = int(num_shards)
    return shard


class ShardedIndex:
    """S :class:`ShardIndex` instances behind one mutation facade.

    Content mutations route to the owner shard (plus a social replica
    fan-out); social mutations fan out to every shard.  The facade is a
    plain coordinator — it holds no locks; concurrency control belongs
    to the serving layer (:class:`repro.sharding.gateway.ShardedGateway`).
    """

    def __init__(self, shards: list[ShardIndex], router: ShardRouter) -> None:
        if not shards:
            raise ValueError("a sharded index needs at least one shard")
        if router.shards != len(shards):
            raise ValueError(
                f"router covers {router.shards} shards, got {len(shards)}"
            )
        self.shards = list(shards)
        self.router = router
        self.config = shards[0].config
        # Stateless extraction helper for routing/ingest of new clips.
        self._extractor = ContentStore(
            self.config, build_lsb=False, build_global_features=False
        )
        self.pin_layout()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        dataset: CommunityDataset,
        config: RecommenderConfig,
        shards: int,
        router: ShardRouter | str = "hash",
        up_to_month: int = DEFAULT_UP_TO_MONTH,
        build_lsb: bool = True,
        build_global_features: bool = True,
    ) -> "ShardedIndex":
        """Partition *dataset* across *shards* and build every shard.

        Extraction runs once per video during the partition pass; each
        shard is then bulk-loaded from the pre-extracted state in sorted
        id order, exactly as a cold single-index build would load it.
        """
        if isinstance(router, str):
            router = make_router(router, shards, config)
        elif router.shards != shards:
            raise ValueError(
                f"router covers {router.shards} shards, expected {shards}"
            )
        extractor = ContentStore(
            config, build_lsb=False, build_global_features=build_global_features
        )
        owned: list[list[str]] = [[] for _ in range(shards)]
        extracted: dict = {}
        for video_id in sorted(dataset.records):
            clip = dataset.clip(video_id)
            series = extractor.extract(clip)
            features = global_features(clip) if build_global_features else None
            extracted[video_id] = (series, features)
            target = router.route(
                video_id, series if router.needs_series else None
            )
            owned[target].append(video_id)
        built = [
            _build_shard(
                dataset,
                config,
                shard_id,
                shards,
                owned[shard_id],
                extracted,
                up_to_month,
                build_lsb,
                build_global_features,
            )
            for shard_id in range(shards)
        ]
        return cls(built, router)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def dataset(self) -> CommunityDataset:
        """The records and comment log (every shard holds all comments)."""
        return self.shards[0].dataset

    @property
    def social_store(self) -> SocialStore:
        """The social state, replicated on every shard (shard 0's copy)."""
        return self.shards[0].social_store

    @property
    def up_to_month(self) -> int:
        """The comment watermark (every shard advances it together)."""
        return self.shards[0].up_to_month

    @property
    def video_ids(self) -> list[str]:
        """All indexed video ids across shards, sorted."""
        merged: list[str] = []
        for shard in self.shards:
            merged.extend(shard.video_ids)
        return sorted(merged)

    def owner_of(self, video_id: str) -> int:
        """The shard currently holding *video_id*'s content."""
        for shard in self.shards:
            if video_id in shard.content.series:
                return shard.shard_id
        raise KeyError(f"unknown video {video_id!r}")

    def shard_sizes(self) -> list[int]:
        """Per-shard indexed-video counts (placement balance)."""
        return [len(shard.content.series) for shard in self.shards]

    # ------------------------------------------------------------------
    # Layout pinning (bit-parity with the single-index oracle)
    # ------------------------------------------------------------------
    def pin_layout(self) -> bool:
        """Pin every shard's bank to the global (oracle) pack layout.

        The float32 scoring kernel's per-pair results depend on the
        bank's padded width (merged-reduction shape) and the pack's key
        offset (derived from the value minimum).  A shard's natural
        layout reflects only its own rows, so shards are pinned to the
        reduction of the per-shard extremes: the maximum natural width
        and the minimum float32 value — exactly what a single bank over
        the union of all rows would derive.  The segment-integral grid
        is pinned to the global value range as well: grids only steer
        pruning bounds (sound on any grid), but one shared grid lets the
        scatter compute a guest query's integrals once instead of per
        shard.  Returns whether any shard's layout changed (callers
        republish epochs when it did).
        """
        extremes = [
            shard.content.signature_bank().layout_extremes()
            for shard in self.shards
            if shard.content.series
        ]
        if not extremes:
            return False
        width = max(w for w, _, _ in extremes)
        lo = min(m for _, m, _ in extremes)
        hi = max(m for _, _, m in extremes)
        grid = np.linspace(lo, hi, SignatureFastPack.SEGMENTS + 1)
        changed = False
        for shard in self.shards:
            if not shard.content.series:
                continue
            bank = shard.content.signature_bank()
            if bank.pin_layout(width=width, offset=lo - 1.0, grid=grid):
                changed = True
        return changed

    # ------------------------------------------------------------------
    # Mutations (route + fan out)
    # ------------------------------------------------------------------
    def _materialize(self, clip_or_record) -> tuple[str, VideoClip]:
        """The clip of an ingest argument (records re-derive via shard 0)."""
        if isinstance(clip_or_record, VideoClip):
            return clip_or_record.video_id, clip_or_record
        record: VideoRecord = clip_or_record
        host = self.dataset
        added = record.video_id not in host.records
        if added:
            host.records[record.video_id] = record
        try:
            clip = host.clip(record.video_id)
        finally:
            if added:
                host.records.pop(record.video_id, None)
        return record.video_id, clip

    def ingest_video(
        self,
        clip_or_record,
        owner: str | None = None,
        users: Iterable[str] = (),
    ) -> str:
        """Route a new video to its owner shard; replicate its descriptor."""
        video_id, clip = self._materialize(clip_or_record)
        for shard in self.shards:
            if video_id in shard.content.series:
                raise ValueError(f"video {video_id!r} is already indexed")
        series = (
            self._extractor.extract(clip) if self.router.needs_series else None
        )
        target = self.router.route(video_id, series)
        self.shards[target].ingest_video(clip_or_record, owner=owner, users=users)
        members = self.shards[target].descriptor(video_id).users
        for shard in self.shards:
            if shard.shard_id != target:
                shard.ingest_social(video_id, members)
        return video_id

    def retire_video(self, video_id: str) -> None:
        """Retire content on the owner shard, the descriptor everywhere."""
        target = self.owner_of(video_id)
        self.shards[target].retire_video(video_id)
        for shard in self.shards:
            if shard.shard_id != target:
                shard.retire_social(video_id)

    def apply_comments(
        self,
        comments: Iterable[tuple[str, str]],
        incremental: bool = False,
    ) -> list:
        """Fold a comment batch into every shard's replicated social state."""
        pairs = list(comments)
        return [
            shard.apply_comments(pairs, incremental=incremental)
            for shard in self.shards
        ]

    def remove_comments(self, comments: Iterable[tuple[str, str]]) -> int:
        """Un-apply a revoked batch from every shard's replicated state."""
        pairs = list(comments)
        removed = 0
        for shard in self.shards:
            removed = shard.remove_comments(pairs)
        return removed

    def advance_watermark(self, month: int) -> int:
        """Advance every shard's comment watermark."""
        result = 0
        for shard in self.shards:
            result = shard.advance_watermark(month)
        return result

    def add_comment_history(self, comments: Iterable[Comment]) -> int:
        """Extend every shard's historical comment log (WAL-logged)."""
        batch = list(comments)
        for shard in self.shards:
            shard.add_comment_history(batch)
        return len(batch)
