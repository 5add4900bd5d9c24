"""K-top-score video search — the index-backed KNN of the paper's Figure 6.

The exhaustive recommenders in :mod:`repro.core.recommender` score every
video; ``KTopScoreVideoSearch`` instead drives the two indexes:

1. **social step** — vectorize the query's social descriptor through the
   chained hash table, pull candidates from the ``k`` inverted files, rank
   them by the SAR approximation s̃J;
2. **content step** — for each query signature, pull the entries with the
   next longest common Z-order prefix from the LSB index;
3. **refinement loop** — interleave the two candidate streams, compute the
   full FJ relevance (κJ + s̃J) for each new candidate, and maintain the
   running top-K; stop when both streams are exhausted or the configured
   budgets are spent and the top-K is stable.

Refinement scores candidates in **per-round blocks** through the batch
kernels (one float32 vectorized EMD call per query signature covers a
whole block, and one ``minimum``/``maximum`` reduction covers the block's
s̃J), and memoizes per-candidate component scores so interleaved streams
— and repeated searches of the same query — never rescore a video.

This trades a bounded amount of recall (it only scores candidates the
indexes surface) for sub-linear query cost, exactly the deal the paper's
Section 4.4 describes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.fusion import fuse_fj
from repro.core.pipeline import CommunityIndex
from repro.social.sar import approx_jaccard_batch

__all__ = ["KnnResult", "KTopScoreVideoSearch"]


@dataclass(frozen=True)
class KnnResult:
    """One scored recommendation."""

    video_id: str
    score: float
    content: float
    social: float


class KTopScoreVideoSearch:
    """Index-backed top-K search over a :class:`CommunityIndex`.

    Parameters
    ----------
    index:
        Must have been built with ``build_lsb=True``.
    omega:
        Fusion weight; defaults to the index configuration's value.
    block_size:
        Candidates accumulated from the interleaved streams before each
        batch-scoring round of the refinement loop.
    probes:
        LSB trees consulted per content-candidate lookup; defaults to the
        index configuration's ``knn_probes`` (``None`` = all trees).
    prune:
        Early-terminate candidates whose fused-score upper bound cannot
        displace the current top-K floor (the default).  Pruned
        candidates are skipped before the float32 κJ kernel runs; the
        returned top-K is provably unchanged (a pruned score can never
        exceed the heap floor it would need to beat strictly).
        ``False`` scores every candidate — the exhaustive reference the
        parity tests compare against.
    """

    def __init__(
        self,
        index: CommunityIndex,
        omega: float | None = None,
        block_size: int = 16,
        probes: int | None = None,
        prune: bool = True,
    ) -> None:
        if index.lsb is None:
            raise ValueError("KTopScoreVideoSearch needs the LSB index built")
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.index = index
        self.omega = index.config.omega if omega is None else float(omega)
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1], got {self.omega}")
        self.block_size = block_size
        self.probes = index.config.knn_probes if probes is None else int(probes)
        if self.probes is not None and self.probes < 1:
            raise ValueError(f"probes must be >= 1, got {self.probes}")
        self.prune = bool(prune)
        #: Candidates skipped by the bound check in the most recent
        #: :meth:`search` (the recall sweep reports this).
        self.last_pruned = 0
        #: (query_id, candidate_id) -> (content, social); survives across
        #: searches so repeated or overlapping queries reuse components.
        self._component_memo: dict[tuple[str, str], tuple[float, float]] = {}
        self._memo_revisions = index.revisions

    def clear_memo(self, revisions: tuple[int, int] | None = None) -> None:
        """Drop memoized component scores.

        Called automatically by :meth:`search` whenever the index's store
        revisions move (ingest, retire, comment maintenance), so memoized
        components can never leak across index mutations.

        *revisions* is the snapshot the caller already compared against;
        re-reading the counters here would race — a mutation landing
        between :meth:`search`'s staleness check and this call would tag
        the emptied memo with the *new* revision pair while the search
        scores against pre-mutation state, mixing epochs on the next
        search.  The check and the tag must come from one snapshot.
        """
        self._component_memo.clear()
        self._memo_revisions = (
            self.index.revisions if revisions is None else revisions
        )

    # ------------------------------------------------------------------
    def _social_candidates(self, query_id: str, query_vector: np.ndarray) -> list[str]:
        """Step 1 of Figure 6: inverted-file candidates ranked by s̃J."""
        candidates = self.index.social.inverted.candidates(query_vector)
        budget = self.index.config.knn_social_budget
        shortlist = [vid for vid in candidates[: budget * 2] if vid != query_id]
        if not shortlist:
            return []
        scores = approx_jaccard_batch(
            query_vector,
            np.stack([self.index.social_vector(vid) for vid in shortlist]),
        )
        ranked = sorted(zip(-scores, shortlist))
        return [vid for _, vid in ranked[:budget]]

    def _content_candidates(self, query_id: str) -> list[str]:
        """Step 2 of Figure 6: LSB longest-common-prefix candidates."""
        budget = self.index.config.knn_content_budget
        ordered: list[str] = []
        seen: set[str] = set()
        for signature in self.index.series[query_id]:
            for vid in self.index.lsb.candidate_videos(
                signature, budget, probes=self.probes
            ):
                if vid != query_id and vid not in seen:
                    seen.add(vid)
                    ordered.append(vid)
        return ordered

    def _score_block(
        self,
        query_id: str,
        query_vector: np.ndarray,
        block: list[str],
        kth: float | None = None,
    ) -> list[KnnResult]:
        """FJ components for a block of candidates via the batch kernels.

        *kth* is the current heap floor once the heap is full (``None``
        before).  With pruning on, fresh candidates whose fused-score
        upper bound — exact social plus the κJ count cap — is at most
        *kth* are skipped entirely: displacing the floor needs a score
        **strictly** above it, and a pruned score can never exceed its
        bound.  Skipped candidates are not memoized (their components
        were never computed) and yield no result.
        """
        memo = self._component_memo
        fresh = [vid for vid in block if (query_id, vid) not in memo]
        if fresh:
            social = approx_jaccard_batch(
                query_vector,
                np.stack([self.index.social_vector(vid) for vid in fresh]),
            )
            if self.prune and kth is not None:
                n1 = len(self.index.series[query_id])
                lengths = np.array(
                    [len(self.index.series[vid]) for vid in fresh], dtype=np.int64
                )
                caps = np.minimum(n1, lengths) / np.maximum(n1, lengths)
                caps *= 1.0 + 2e-6  # float32 kernel rounding headroom
                np.minimum(caps, 1.0, out=caps)
                bounds = (1.0 - self.omega) * caps
                bounds += self.omega * np.minimum(social, 1.0)
                keep = bounds > kth
                if not keep.all():
                    self.last_pruned += int((~keep).sum())
                    fresh = [vid for vid, k in zip(fresh, keep) if k]
                    social = social[keep]
            if fresh:
                content = self.index.signature_bank().kappa_j_scores(
                    self.index.series[query_id],
                    fresh,
                    self.index.config.match_threshold,
                    dtype="float32",
                )
                for vid, c, s in zip(fresh, content, social):
                    memo[(query_id, vid)] = (float(c), float(s))
        results = []
        for vid in block:
            scores = memo.get((query_id, vid))
            if scores is None:  # pruned this round
                continue
            content_score, social_score = scores
            results.append(
                KnnResult(
                    video_id=vid,
                    score=fuse_fj(
                        min(content_score, 1.0), min(social_score, 1.0), self.omega
                    ),
                    content=content_score,
                    social=social_score,
                )
            )
        return results

    # ------------------------------------------------------------------
    def search(self, query_id: str, top_k: int = 10) -> list[KnnResult]:
        """Figure 6's loop: interleave candidate streams, refine, return K."""
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if query_id not in self.index.series:
            raise KeyError(f"unknown video {query_id!r}")
        revisions = self.index.revisions
        if self._memo_revisions != revisions:
            self.clear_memo(revisions)
        # Query-side work happens exactly once per search.
        query_vector = self.index.social.vectorize_users(
            self.index.descriptor(query_id).users
        )
        social_stream = iter(self._social_candidates(query_id, query_vector))
        content_stream = iter(self._content_candidates(query_id))
        heap: list[tuple[float, str]] = []  # min-heap of (score, vid)
        results: dict[str, KnnResult] = {}
        seen: set[str] = set()  # includes pruned candidates (never rescored)
        self.last_pruned = 0
        exhausted = {"social": False, "content": False}
        while not (exhausted["social"] and exhausted["content"]):
            block: list[str] = []
            while len(block) < self.block_size and not (
                exhausted["social"] and exhausted["content"]
            ):
                for label, stream in (
                    ("content", content_stream),
                    ("social", social_stream),
                ):
                    if exhausted[label]:
                        continue
                    candidate = next(stream, None)
                    if candidate is None:
                        exhausted[label] = True
                        continue
                    if candidate in seen or candidate in block:
                        continue
                    block.append(candidate)
            seen.update(block)
            kth = heap[0][0] if len(heap) >= top_k else None
            for result in self._score_block(query_id, query_vector, block, kth):
                results[result.video_id] = result
                if len(heap) < top_k:
                    heapq.heappush(heap, (result.score, result.video_id))
                elif result.score > heap[0][0]:
                    heapq.heapreplace(heap, (result.score, result.video_id))
        ranked = sorted(heap, key=lambda pair: (-pair[0], pair[1]))
        return [results[vid] for _, vid in ranked]

    def recommend(self, query_id: str, top_k: int = 10) -> list[str]:
        """Harness-compatible wrapper returning only the ranked ids."""
        return [result.video_id for result in self.search(query_id, top_k)]
