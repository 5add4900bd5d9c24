"""Sharded community index + scatter-gather serving.

Partitions the catalogue's content across S :class:`ShardIndex` shards
(social state replicated for score parity), serves the merged top-K
bit-identically to the single-index oracle via :class:`ShardedGateway`,
and persists/recovers each shard independently.
"""

from repro.sharding.gateway import (
    ShardedGateway,
    ShardServingGateway,
    serving_gateway,
)
from repro.sharding.persist import (
    attach_wals,
    companion_path,
    is_sharded_deployment,
    open_master,
    read_manifest,
    recover_shards,
    save_master,
    save_shards,
    shard_paths,
)
from repro.sharding.router import (
    HashShardRouter,
    ShardRouter,
    ZOrderShardRouter,
    make_router,
)
from repro.sharding.shard import ShardedIndex, ShardIndex

__all__ = [
    "HashShardRouter",
    "ShardRouter",
    "ShardServingGateway",
    "ShardedGateway",
    "ShardedIndex",
    "ShardIndex",
    "ZOrderShardRouter",
    "attach_wals",
    "companion_path",
    "is_sharded_deployment",
    "make_router",
    "open_master",
    "read_manifest",
    "recover_shards",
    "save_master",
    "save_shards",
    "serving_gateway",
    "shard_paths",
]
