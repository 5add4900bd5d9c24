"""The benchmark's workloads: community size, server flags and traffic.

Every workload is a closed loop with one client connection at a time.
The community is the same in every run (:data:`COMMUNITY_SEED`); the
run's seed draws the traffic, a deterministic function of the seed and
the catalogue, so the same seed replays the same operations in the same
order (how many of them a run completes depends on the server's speed,
so the mix of work in any prefix of the stream is kept the same).
A community drawn per seed made run-to-run spread seed-dependent:
``sharded_scan``'s interquartile spread over ten seeds reached 0.30,
since the hash partition's balance and the pruning threshold chain
depend on the catalogue.

Why these four (each stresses a different layer):

* ``hot_hits`` — zipf clicks ("Estimating Attention Flow in Online Video
  Networks": attention is heavily skewed toward a few hot videos), so
  nearly every request is a response-cache hit and the wire does the
  work.  A scan change should not move it.
* ``cold_scan`` — every ``(video, top_k)`` at most once, so every
  request misses the response cache and the memo and the pruned scan
  does the work.  A caching change should not move it.
* ``sharded_scan`` — the same community and keys as ``cold_scan``,
  served from a two-shard deployment on every CPU (so the shard scans
  can overlap): the only workload that reaches the scatter / merge
  path, read as the difference against ``cold_scan``.
* ``mixed_rw`` — zipf reads with one ``POST /interaction`` in four
  (comment writes interleaved with reads, as in "A Fast Sketch Method
  for Mining User Similarities over Fully Dynamic Graph Streams"):
  WAL fsync on every ack, an apply + epoch publish every
  :data:`APPLY_EVERY` acks, cache and memo invalidation on each publish.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass

#: ``repro generate`` seed of the community every run serves.
COMMUNITY_SEED = 2015
#: Ranking depth of the read traffic.
TOP_K = 10
#: Ranking depths (``TOP_K`` up) the scan workloads' keys are spread
#: over: 20 x 300 videos = 6000 distinct keys, over three times what a
#: 5 s window asks (only a run that got past them would go deeper).
SCAN_DEPTHS = 20
#: Zipf exponent of the hot-video skew.
ZIPF_S = 1.1
#: Server folds logged interactions into the index every N acks.
APPLY_EVERY = 8
#: One operation in this many is a POST in ``mixed_rw``.
WRITE_EVERY = 4
#: Size of the seeded pool of interacting viewers.
USER_POOL = 64


@dataclass(frozen=True)
class Workload:
    name: str
    hours: float
    traffic: str  # "zipf", "distinct" or "mixed"
    shards: int = 1
    #: Serve on every CPU instead of the load generator's one.
    all_cpus: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hot_hits", hours=17, traffic="zipf"),
        Workload("cold_scan", hours=25, traffic="distinct"),
        Workload("sharded_scan", hours=25, traffic="distinct", shards=2, all_cpus=True),
        Workload("mixed_rw", hours=25, traffic="mixed"),
    )
}


def _zipf_sampler(rng: random.Random, videos: list[str]):
    """Zipf(:data:`ZIPF_S`) draws from *rng* over a popularity order that
    is the same for every seed: with a per-seed order, which few videos
    took most of the traffic (and so the cost of their scans) changed
    from seed to seed."""
    order = sorted(videos)
    random.Random(COMMUNITY_SEED).shuffle(order)
    weights = list(itertools.accumulate(1.0 / rank**ZIPF_S for rank in range(1, len(order) + 1)))
    total = weights[-1]
    return lambda: order[min(len(order) - 1, bisect.bisect_left(weights, rng.random() * total))]


def operations(workload: Workload, seed: int, videos: list[str]):
    """Endless operation stream: ``("recommend", video, top_k)`` or
    ``("interaction", user, video)``."""
    rng = random.Random(seed)
    if workload.traffic == "distinct":
        # Every (video, top_k) pair over SCAN_DEPTHS depths in one seeded
        # shuffle: no key repeats, so every request scans, and every
        # prefix of the stream draws its depths from the same mix, so the
        # work per request does not depend on how far a run gets.
        for block in itertools.count():
            first = TOP_K + block * SCAN_DEPTHS
            pairs = [(v, k) for k in range(first, first + SCAN_DEPTHS) for v in videos]
            rng.shuffle(pairs)
            for video, top_k in pairs:
                yield ("recommend", video, top_k)
    pick = _zipf_sampler(rng, videos)
    users = [f"viewer-{seed}-{i}" for i in range(USER_POOL)]
    for i in itertools.count():
        if workload.traffic == "mixed" and i % WRITE_EVERY == WRITE_EVERY - 1:
            yield ("interaction", rng.choice(users), pick())
        else:
            yield ("recommend", pick(), TOP_K)


def warmup(workload: Workload, videos: list[str]):
    """Operations sent before the window, or None for a timed warm-up.

    ``hot_hits`` asks every video once, so its window starts with a full
    response cache and measures the hit path alone, whatever the seed.
    """
    if workload.traffic == "zipf":
        return [("recommend", video, TOP_K) for video in videos]
    return None

