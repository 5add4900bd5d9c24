"""Epoch snapshot isolation: immutable per-query views of the live index.

The live stores (:class:`~repro.core.stores.ContentStore` /
:class:`~repro.core.stores.SocialStore`) are only safe when queries and
mutations are serialized — one ``ingest_video`` mid-scan can tear a
:class:`~repro.measures.content.SignatureBank` read or swap the SAR
matrix under a ``searchsorted``.  Epochs decouple the two sides:

* every **mutation** (applied under the gateway's writer lock) builds and
  publishes a new :class:`CommunityEpoch` — a copy-on-write freeze of the
  revision-counted store state.  Publication is O(videos): dict copies
  hold the immutable per-video values (signature series, social
  descriptors), the bank snapshot shares its padded matrices (safe under
  its append-only array discipline, see
  :meth:`~repro.measures.content.SignatureBank.snapshot`), and the SAR
  matrices are the index's revision-keyed materializations, which are
  rebuilt fresh — never written in place — when a revision moves;
* every **query** pins the current epoch, scans it without taking any
  lock (the pin/unpin itself is a short critical section; the scan hot
  path touches only frozen state), and unpins when done;
* an epoch is **retired** when it is no longer current and its last
  reader has drained.

A :class:`CommunityEpoch` duck-types enough of
:class:`~repro.core.pipeline.CommunityIndex` that an unmodified
:class:`~repro.core.recommender.FusionRecommender` serves from it; the
SAR vectorizers are replaced by :class:`_RowVectorizer`, which reads the
query's histogram straight out of the frozen SAR matrix instead of
walking a live hash table that incremental maintenance mutates in place.
Because every indexed video's matrix row *is* its vectorization, the
substitution is bit-exact.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.core.recommender import FusionRecommender

__all__ = ["CommunityEpoch", "EpochManager"]


class _FrozenSocialView:
    """The slice of :class:`SocialStore` a recommender reads, frozen."""

    __slots__ = ("available", "unavailable_reason", "skipped_mutations", "k")

    def __init__(self, store) -> None:
        self.available = store.available
        self.unavailable_reason = store.unavailable_reason
        self.skipped_mutations = store.skipped_mutations
        self.k = store.k


class _RowVectorizer:
    """SAR vectorization by frozen-matrix row lookup.

    Rows of the epoch's ``(N, k)`` SAR matrix follow the sorted video-id
    order and were produced by the live vectorizer at publish time, so
    ``matrix[row_of(video)]`` *is* ``vectorize(descriptor(video))`` — but
    reads only frozen state.  Only descriptors of indexed videos can be
    vectorized, which is exactly what query-time code paths need.
    """

    __slots__ = ("_matrix", "_ids")

    def __init__(self, matrix: np.ndarray, ids: np.ndarray) -> None:
        self._matrix = matrix
        self._ids = ids

    def vectorize(self, descriptor) -> np.ndarray:
        row = int(np.searchsorted(self._ids, descriptor.video_id))
        if row >= self._ids.size or self._ids[row] != descriptor.video_id:
            raise KeyError(f"unknown video {descriptor.video_id!r}")
        return self._matrix[row]


class CommunityEpoch:
    """One immutable published view of the community (a serving epoch).

    Duck-types the :class:`~repro.core.pipeline.CommunityIndex` surface
    that :class:`~repro.core.recommender.FusionRecommender` consumes
    (``config`` / ``series`` / ``video_ids`` / ``descriptor`` /
    ``signature_bank`` / ``sar_matrix`` / ``sketch_matrix`` / ``sar`` /
    ``sar_h`` / ``social_store`` / ``revisions``), entirely over frozen
    state.  The
    ``lsb`` attribute is ``None``: index-backed KNN search stays a
    live-index feature.

    Reader bookkeeping (``readers``/``retired``) belongs to the owning
    :class:`EpochManager` and is only touched under its lock.
    """

    def __init__(self, index, epoch_id: int, published_at: float) -> None:
        self.epoch_id = epoch_id
        self.published_at = published_at
        self.config = index.config
        self.revisions = index.revisions
        self.up_to_month = index.up_to_month
        self.series = dict(index.content.series)
        self.features = dict(index.content.features)
        self.video_ids = sorted(self.series)
        self._ids_array = np.asarray(self.video_ids)
        self.descriptors = dict(index.social_store.descriptors)
        self.social_store = _FrozenSocialView(index.social_store)
        # A shard can be (or become) empty of content while its replicated
        # social side still holds descriptors; an empty content store has
        # no bank or SAR matrix to freeze.
        self._bank = (
            index.content.signature_bank().snapshot() if self.series else None
        )
        self._sar_matrices: dict[str, np.ndarray] = {}
        self._vectorizers: dict[str, _RowVectorizer] = {}
        self._sketch: tuple[np.ndarray, np.ndarray] | None = None
        if self.social_store.available and self.video_ids:
            for backend in ("sar", "sar-h"):
                matrix = index.sar_matrix(backend)
                self._sar_matrices[backend] = matrix
                self._vectorizers[backend] = _RowVectorizer(matrix, self._ids_array)
            # The sketch bank is maintained incrementally, so this is the
            # index's revision-keyed stacked copy — frozen like the SAR
            # matrices, never written in place.
            self._sketch = index.sketch_matrix()
        self.lsb = None
        # Managed by EpochManager under its lock.
        self.readers = 0
        self.retired = False

    # ------------------------------------------------------------------
    # CommunityIndex surface
    # ------------------------------------------------------------------
    def descriptor(self, video_id: str):
        """The frozen social descriptor of *video_id*."""
        return self.descriptors[video_id]

    def signature_bank(self):
        """The frozen signature bank snapshot."""
        if self._bank is None:
            raise ValueError("cannot build a SignatureBank from no series")
        return self._bank

    def sar_matrix(self, backend: str) -> np.ndarray:
        """The frozen ``(N, k)`` SAR matrix of *backend*."""
        return self._sar_matrices[backend]

    def sketch_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """The frozen ``(sketches, sizes)`` pair (``social_mode="sketch"``)."""
        if self._sketch is None:
            raise KeyError("no sketch matrix frozen in this epoch")
        return self._sketch

    @property
    def sar(self) -> _RowVectorizer:
        """Frozen sorted-dictionary SAR vectorization (row lookup)."""
        return self._vectorizers["sar"]

    @property
    def sar_h(self) -> _RowVectorizer:
        """Frozen chained-hash SAR vectorization (row lookup)."""
        return self._vectorizers["sar-h"]

    # ------------------------------------------------------------------
    # Serving helpers
    # ------------------------------------------------------------------
    def recommender(self, **kwargs) -> FusionRecommender:
        """A :class:`FusionRecommender` bound to this frozen epoch.

        Epoch recommenders are shared by concurrent reader threads.  A
        recommender keeps no mutable per-instance state — everything it
        touches during a query is frozen epoch state or query-local — so
        one instance serves any number of threads.
        """
        kwargs.setdefault("time_budget", None)
        return FusionRecommender(self, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommunityEpoch(id={self.epoch_id}, videos={len(self.video_ids)}, "
            f"revisions={self.revisions}, readers={self.readers})"
        )


class EpochManager:
    """Publish/pin/retire lifecycle of :class:`CommunityEpoch` objects.

    One writer publishes (under the gateway's writer lock); any number of
    readers pin and unpin.  The manager's own lock protects only the
    pointer swap and the refcounts — never the scan.  A superseded epoch
    is retired the moment its last reader unpins (or immediately at
    publication if it has no readers), so the set of live epochs is
    bounded by the number of in-flight queries plus one.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._current: CommunityEpoch | None = None
        self._live: dict[int, CommunityEpoch] = {}
        self._next_id = 0
        self.published_total = 0
        self.retired_total = 0

    # ------------------------------------------------------------------
    def publish(self, index, prepare=None) -> CommunityEpoch:
        """Freeze *index* into a new epoch and make it current.

        *prepare* (optional) runs over the finished snapshot **before**
        the pointer swap — anything readers expect on a pinned epoch
        (the gateway attaches its per-epoch recommenders here) must be
        in place by the time the epoch becomes visible, or a reader
        pinning in the gap observes a half-initialised view.
        """
        with self._lock:
            epoch_id = self._next_id
            self._next_id += 1
        # Building the snapshot happens outside the manager lock (it is
        # O(videos)); the caller's writer lock keeps the index stable.
        epoch = CommunityEpoch(index, epoch_id, self._clock())
        if prepare is not None:
            prepare(epoch)
        with self._lock:
            previous = self._current
            self._current = epoch
            self._live[epoch.epoch_id] = epoch
            self.published_total += 1
            if previous is not None and previous.readers == 0:
                self._retire(previous)
        return epoch

    def pin(self) -> CommunityEpoch:
        """The current epoch, pinned for one reader (must be unpinned)."""
        with self._lock:
            epoch = self._current
            if epoch is None:
                raise RuntimeError("no epoch has been published")
            epoch.readers += 1
            return epoch

    def pin_specific(self, epoch: CommunityEpoch) -> bool:
        """Pin *epoch* (not necessarily current) if it is still live.

        The sharded gateway publishes one epoch per shard and records the
        whole vector atomically; readers then pin each shard's *recorded*
        epoch rather than whatever is current at pin time, so one scatter
        never mixes shard states from different publications.  Returns
        ``False`` when the epoch has already been retired — the caller
        re-reads the vector and retries.
        """
        with self._lock:
            if epoch.retired:
                return False
            epoch.readers += 1
            return True

    def unpin(self, epoch: CommunityEpoch) -> None:
        """Drop one reader pin; retires a drained superseded epoch."""
        with self._lock:
            epoch.readers -= 1
            if epoch.readers == 0 and epoch is not self._current:
                self._retire(epoch)

    def _retire(self, epoch: CommunityEpoch) -> None:
        epoch.retired = True
        self._live.pop(epoch.epoch_id, None)
        self.retired_total += 1

    # ------------------------------------------------------------------
    @property
    def current(self) -> CommunityEpoch | None:
        """The epoch new queries pin (None before the first publish)."""
        with self._lock:
            return self._current

    @property
    def live_count(self) -> int:
        """Epochs not yet retired (current + still-pinned superseded)."""
        with self._lock:
            return len(self._live)

    def current_age(self) -> float:
        """Seconds since the current epoch was published."""
        with self._lock:
            if self._current is None:
                return 0.0
            return self._clock() - self._current.published_at
