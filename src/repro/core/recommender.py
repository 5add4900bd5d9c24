"""The recommenders: CR, SR, CSF and the SAR / SAR-H optimised variants.

All variants share one skeleton — score every candidate video against the
query with some mix of content and social relevance, rank, return the top
K — and differ exactly along the two axes the paper evaluates:

* **content measure**: κJ (the paper's choice), ERP or DTW (Figure 7);
* **social mode**: ``exact`` set Jaccard, ``naive`` quadratic Jaccard (the
  cost model the paper charges to unoptimised CSF), ``sar``
  (sorted-dictionary vectorization + Eq. 6), ``sar-h`` (chained-hash
  vectorization + Eq. 6) — Figure 12(a)'s three curves — or ``sketch``
  (fixed-size odd sketches estimating the exact Jaccard,
  :mod:`repro.social.sketch`).

Two **scoring engines** drive the exhaustive scan:

* ``"batch"`` (the default) — one query is scored against *all*
  candidates with array-level kernels: the community-wide
  :class:`repro.measures.content.SignatureBank` turns the κJ SimC
  matrices into a handful of vectorized EMD calls, and the materialized
  ``(N, k)`` SAR matrix turns s̃J into one ``minimum``/``maximum``
  reduction (:func:`repro.social.sar.approx_jaccard_batch`).  Whenever
  the kernels cover every term (κJ content, a SAR or sketch social mode)
  and no deadline applies, it serves through one pruned float32 scan
  over the packed signature bank (DESIGN §12); otherwise it scores by
  candidate id.
* ``"scalar"`` — the original per-pair Python calls, kept for parity
  testing and for the Figure-12 wall-clock benches whose whole point is
  measuring the per-candidate cost the batch engine amortises away.

Both engines produce identical rankings (scores agree to float rounding);
the parity suite in ``tests/test_batch_engine.py`` pins this for every
``social_mode`` × ``content_measure`` combination, and the hot-path
parity tests pin the pruned scan against the float64
:meth:`FusionRecommender.component_scores` oracle.

Serving degrades instead of failing: when the social store is marked
unavailable (or has lost more maintenance batches than the configured
staleness bound), :meth:`FusionRecommender.recommend` renormalises ω to
zero and returns a content-only ranking flagged ``degraded``; a per-query
``time_budget`` cuts the candidate scan short and returns the best-effort
prefix flagged ``partial``.  The :class:`Recommendations` result is a
``list`` subclass, so existing equality-based callers are unaffected.

The named constructors at the bottom produce the four systems of the
paper's Figure 10 plus the two optimised CSF flavours of Figure 12.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from repro.core.fusion import fuse_fj
from repro.core.pipeline import CommunityIndex
from repro.emd.one_dim import get_workspace
from repro.measures.content import _segment_integrals, kappa_j
from repro.measures.sequence import dtw_similarity, erp_similarity
from repro.obs import NULL_TRACE, MetricsRegistry, get_metrics
from repro.signatures.series import SignatureSeries
from repro.social.descriptor import SocialDescriptor, jaccard, jaccard_naive
from repro.social.sar import approx_jaccard, approx_jaccard_batch
from repro.social.sketch import estimate_jaccard, sketch_jaccard_batch, sketch_users

__all__ = [
    "FusionRecommender",
    "Recommendations",
    "content_recommender",
    "social_recommender",
    "csf_recommender",
    "csf_sar_recommender",
    "csf_sar_h_recommender",
]

#: Content measures selectable by name (Figure 7's three candidates).
CONTENT_MEASURES: dict[str, Callable[[SignatureSeries, SignatureSeries], float]] = {
    "kj": kappa_j,
    "erp": erp_similarity,
    "dtw": dtw_similarity,
}

#: Social relevance modes (None disables the social term entirely).
SOCIAL_MODES = ("exact", "naive", "sar", "sar-h", "sketch")

#: Scoring engines of the exhaustive scan.
ENGINES = ("scalar", "batch")

#: Candidates scored between deadline checks under a time budget.  Small
#: enough that overrun past the budget stays bounded, large enough that
#: the per-chunk bookkeeping doesn't dominate the array kernels.
_BUDGET_CHUNK = 32

#: Recording sink for untraced internal calls (``component_scores``, the
#: parameter-sweep path) — disabled, so they pay no clock reads.
_NO_METRICS = MetricsRegistry(enabled=False)

#: Ones vectors for the segment-bound gemv, keyed by segment count.
_BOUND_ONES: dict = {}


def _bound_ones(segments: int) -> np.ndarray:
    ones = _BOUND_ONES.get(segments)
    if ones is None:
        ones = np.ones(segments, dtype=np.float32)
        _BOUND_ONES[segments] = ones
    return ones


class _stage:
    """Time one named stage into both the span tree and the registry.

    A slotted context manager rather than a ``@contextmanager`` generator:
    the hot path enters several stages per query, and the generator
    machinery (a contextlib frame plus two ``next`` calls per stage) is
    measurable at sub-millisecond query latencies.
    """

    __slots__ = ("trace", "metrics", "name", "_span", "_started")

    def __init__(self, trace, metrics, name: str) -> None:
        self.trace = trace
        self.metrics = metrics
        self.name = name

    def __enter__(self) -> "_stage":
        self._span = self.trace.span(self.name)
        self._span.__enter__()
        metrics = self.metrics
        self._started = metrics.clock() if metrics.enabled else 0.0
        return self

    def __exit__(self, exc_type, exc, tb):
        metrics = self.metrics
        if metrics.enabled:
            metrics.observe(
                "repro_stage_seconds",
                metrics.clock() - self._started,
                stage=self.name,
            )
        return self._span.__exit__(exc_type, exc, tb)


class Recommendations(list):
    """A ranked id list plus how it was served.

    A ``list`` subclass: equality, iteration and indexing behave exactly
    like the plain list :meth:`FusionRecommender.recommend` used to
    return, so callers that compare against expected id lists keep
    working.  The extra attributes say whether the ranking was served in
    degraded mode and why.

    Slicing (and :meth:`copy`) returns another :class:`Recommendations`
    carrying the *same* metadata — ``recommend(...)[:5]`` stays
    inspectable instead of silently decaying to a bare ``list`` and
    dropping the degraded/partial flags callers must check.

    Attributes
    ----------
    degraded:
        True when the ranking deviates from full fused service — social
        relevance dropped, or the candidate scan cut short.
    partial:
        True when the per-query time budget expired before every
        candidate was scored (``scored < total``).
    reasons:
        Human-readable explanations, one per degradation cause.
    scored / total:
        Candidates actually scored vs. the full candidate count.
    scores:
        Fused FJ scores aligned with the ranked ids (``None`` when the
        producing path did not attach them); sliced alongside the ids.
    """

    def __init__(
        self,
        ids=(),
        *,
        degraded: bool = False,
        partial: bool = False,
        reasons=(),
        scored: int = 0,
        total: int = 0,
        scores=None,
    ) -> None:
        super().__init__(ids)
        self.degraded = bool(degraded)
        self.partial = bool(partial)
        self.reasons = tuple(reasons)
        self.scored = int(scored)
        self.total = int(total)
        self.scores = None if scores is None else list(scores)

    def _like(self, ids, scores=None) -> "Recommendations":
        """A new :class:`Recommendations` over *ids* with this metadata."""
        return Recommendations(
            ids,
            degraded=self.degraded,
            partial=self.partial,
            reasons=self.reasons,
            scored=self.scored,
            total=self.total,
            scores=scores,
        )

    def __getitem__(self, item):
        result = super().__getitem__(item)
        if isinstance(item, slice):
            sliced = None if self.scores is None else self.scores[item]
            return self._like(result, sliced)
        return result

    def copy(self) -> "Recommendations":
        return self._like(
            list(self), None if self.scores is None else list(self.scores)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ""
        if self.degraded:
            flags = f", degraded=True, reasons={list(self.reasons)!r}"
        if self.partial:
            flags += f", partial={self.scored}/{self.total}"
        return f"Recommendations({list(self)!r}{flags})"


class FusionRecommender:
    """Exhaustive-scan recommender over a :class:`CommunityIndex`.

    Parameters
    ----------
    index:
        The built community index.
    omega:
        Fusion weight; 0 gives pure content (CR), 1 pure social (SR).
    social_mode:
        One of :data:`SOCIAL_MODES`; irrelevant when ``omega == 0``.
    content_measure:
        Key into :data:`CONTENT_MEASURES`; irrelevant when ``omega == 1``.
    engine:
        ``"batch"`` or ``"scalar"``; defaults to the index configuration's
        :attr:`~repro.core.config.RecommenderConfig.engine`.
    time_budget:
        Per-query wall-clock budget (seconds) for :meth:`recommend`;
        ``None`` (the config default) scans every candidate.
    max_social_staleness:
        Skipped-social-mutation bound beyond which :meth:`recommend`
        serves content-only; ``None`` (the config default) only degrades
        when the store is marked unavailable outright.

    SAR modes on the **scalar** engine vectorize candidate descriptors *at
    query time* through the configured dictionary backend, so a wall-clock
    measurement of :meth:`recommend` exposes exactly the cost difference
    the paper's Figure 12(a) reports (quadratic set Jaccard vs
    binary-search vectorization vs chained-hash vectorization); the batch
    engine reads the index's materialized SAR matrix instead.

    The recommender holds no mutable per-instance state: every query
    reads the index and query-local buffers only, so one instance may
    serve any number of threads.
    """

    def __init__(
        self,
        index: CommunityIndex,
        omega: float | None = None,
        social_mode: str = "sar-h",
        content_measure: str = "kj",
        name: str | None = None,
        engine: str | None = None,
        time_budget: float | None = None,
        max_social_staleness: int | None = None,
    ) -> None:
        if social_mode not in SOCIAL_MODES:
            raise ValueError(
                f"unknown social mode {social_mode!r}; expected one of {SOCIAL_MODES}"
            )
        if content_measure not in CONTENT_MEASURES:
            raise ValueError(
                f"unknown content measure {content_measure!r}; "
                f"expected one of {tuple(CONTENT_MEASURES)}"
            )
        self.index = index
        self.omega = index.config.omega if omega is None else float(omega)
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1], got {self.omega}")
        self.engine = index.config.engine if engine is None else engine
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        self.time_budget = (
            index.config.time_budget if time_budget is None else float(time_budget)
        )
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError(f"time_budget must be > 0, got {self.time_budget}")
        self.max_social_staleness = (
            index.config.max_social_staleness
            if max_social_staleness is None
            else int(max_social_staleness)
        )
        if self.max_social_staleness is not None and self.max_social_staleness < 0:
            raise ValueError(
                f"max_social_staleness must be >= 0, got {self.max_social_staleness}"
            )
        self.social_mode = social_mode
        self.content_measure_name = content_measure
        if content_measure == "kj":
            threshold = index.config.match_threshold

            def _kj(first: SignatureSeries, second: SignatureSeries) -> float:
                return kappa_j(first, second, match_threshold=threshold)

            self._content = _kj
        else:
            self._content = CONTENT_MEASURES[content_measure]
        self.name = name or f"fusion(omega={self.omega}, {social_mode}, {content_measure})"

    # ------------------------------------------------------------------
    # Relevance components (per-pair public API)
    # ------------------------------------------------------------------
    def content_relevance(self, query: SignatureSeries, candidate: SignatureSeries) -> float:
        """The configured content similarity between two series."""
        return self._content(query, candidate)

    def social_relevance(
        self, query: SocialDescriptor, candidate: SocialDescriptor
    ) -> float:
        """The configured social similarity between two descriptors."""
        if self.social_mode == "exact":
            return jaccard(query, candidate)
        if self.social_mode == "naive":
            return jaccard_naive(query, candidate)
        if self.social_mode == "sketch":
            config = self.index.config
            first, first_size = sketch_users(
                query.users, bits=config.sketch_bits, seed=config.sketch_seed
            )
            second, second_size = sketch_users(
                candidate.users, bits=config.sketch_bits, seed=config.sketch_seed
            )
            return estimate_jaccard(first, first_size, second, second_size)
        vectorizer = self.index.sar if self.social_mode == "sar" else self.index.sar_h
        return approx_jaccard(
            vectorizer.vectorize(query), vectorizer.vectorize(candidate)
        )

    def score(self, query_id: str, candidate_id: str) -> float:
        """FJ relevance of one candidate (Eq. 9)."""
        content = 0.0
        social = 0.0
        if self.omega < 1.0:
            content = self.content_relevance(
                self.index.series[query_id], self.index.series[candidate_id]
            )
        if self.omega > 0.0:
            social = self.social_relevance(
                self.index.descriptor(query_id), self.index.descriptor(candidate_id)
            )
        return fuse_fj(min(content, 1.0), min(social, 1.0), self.omega)

    # ------------------------------------------------------------------
    # Scalar engine: per-pair calls with hoisted query-side work
    # ------------------------------------------------------------------
    def _content_scores_scalar(
        self, query_id: str, candidates: list[str], query_series=None
    ) -> np.ndarray:
        if query_series is None:
            query_series = self.index.series[query_id]
        return np.array(
            [
                self._content(query_series, self.index.series[candidate_id])
                for candidate_id in candidates
            ],
            dtype=np.float64,
        )

    def _sketch_query_state(self, query_id: str, query_vector):
        """``(matrix, sizes, video_ids, (query row, query size))`` for sketch mode.

        An indexed query's sketch is a row of the materialized bank; a
        guest query either brings its ``(row, size)`` pair along as
        *query_vector* (the sharded scatter path) or — on live indexes,
        where descriptors are replicated — sketches its descriptor.
        """
        matrix, sizes = self.index.sketch_matrix()
        video_ids = np.asarray(self.index.video_ids)
        if query_vector is None:
            position = int(np.searchsorted(video_ids, query_id))
            if position < video_ids.size and video_ids[position] == query_id:
                query_vector = (matrix[position], int(sizes[position]))
            else:
                config = self.index.config
                query_vector = sketch_users(
                    self.index.descriptor(query_id).users,
                    bits=config.sketch_bits,
                    seed=config.sketch_seed,
                )
        return matrix, sizes, video_ids, query_vector

    def _social_scores_scalar(
        self, query_id: str, candidates: list[str], query_vector=None
    ) -> np.ndarray:
        # The query-side descriptor work — including SAR vectorization —
        # happens once per query, not once per candidate; the per-candidate
        # cost (the quantity Figure 12(a) measures) is untouched.  A
        # *query_vector* bypasses the query-side vectorization entirely
        # (sharded scatter passes the owner shard's materialized row, which
        # a non-owner's row-backed epoch vectorizer could not produce).
        if self.social_mode == "sketch":
            matrix, sizes, video_ids, query_vector = self._sketch_query_state(
                query_id, query_vector
            )
            query_row, query_size = query_vector

            def one(vid: str) -> float:
                row = int(np.searchsorted(video_ids, vid))
                if row >= video_ids.size or video_ids[row] != vid:
                    raise KeyError(f"candidate {vid!r} is not in the index")
                return estimate_jaccard(
                    query_row, query_size, matrix[row], int(sizes[row])
                )

            return np.array([one(vid) for vid in candidates], dtype=np.float64)
        query_descriptor = self.index.descriptor(query_id)
        if self.social_mode == "exact":
            one = lambda vid: jaccard(query_descriptor, self.index.descriptor(vid))
        elif self.social_mode == "naive":
            one = lambda vid: jaccard_naive(query_descriptor, self.index.descriptor(vid))
        else:
            vectorizer = (
                self.index.sar if self.social_mode == "sar" else self.index.sar_h
            )
            if query_vector is None:
                query_vector = vectorizer.vectorize(query_descriptor)
            one = lambda vid: approx_jaccard(
                query_vector, vectorizer.vectorize(self.index.descriptor(vid))
            )
        return np.array([one(vid) for vid in candidates], dtype=np.float64)

    # ------------------------------------------------------------------
    # Batch engine: array kernels over all candidates at once
    # ------------------------------------------------------------------
    def _content_scores_batch(
        self,
        query_id: str,
        candidates: list[str],
        dtype: str = "float32",
        query_series=None,
    ) -> np.ndarray:
        if query_series is None:
            query_series = self.index.series[query_id]
        if self.content_measure_name != "kj":
            # ERP/DTW are order-sensitive sequence alignments with no
            # array-level one-vs-many form; they stay per-pair.
            return self._content_scores_scalar(
                query_id, candidates, query_series=query_series
            )
        return self.index.signature_bank().kappa_j_scores(
            query_series, candidates, self.index.config.match_threshold, dtype=dtype
        )

    def _social_scores_batch(
        self, query_id: str, candidates: list[str], query_vector=None
    ) -> np.ndarray:
        if self.social_mode in ("exact", "naive"):
            # Set-based Jaccard has no histogram matrix to batch over; the
            # scalar path (with hoisted query descriptor) is already it.
            return self._social_scores_scalar(query_id, candidates)
        if self.social_mode == "sketch":
            matrix, sizes, video_ids, query_vector = self._sketch_query_state(
                query_id, query_vector
            )
            query_row, query_size = query_vector
            wanted = np.asarray(candidates)
            rows = np.searchsorted(video_ids, wanted)
            missing = video_ids[np.minimum(rows, video_ids.size - 1)] != wanted
            if missing.any():
                raise KeyError(
                    f"candidate {wanted[missing][0]!r} is not in the index"
                )
            return sketch_jaccard_batch(
                query_row, query_size, matrix[rows], sizes[rows]
            )
        vectorizer = self.index.sar if self.social_mode == "sar" else self.index.sar_h
        if query_vector is None:
            query_vector = vectorizer.vectorize(self.index.descriptor(query_id))
        # Rows of the materialized matrix follow the sorted video_ids
        # order; searchsorted maps any candidate subset (the full scan
        # or a budget chunk) onto its rows without re-vectorizing.
        matrix = self.index.sar_matrix(self.social_mode)
        video_ids = np.asarray(self.index.video_ids)
        wanted = np.asarray(candidates)
        rows = np.searchsorted(video_ids, wanted)
        # searchsorted returns an *insertion point* — for an id absent
        # from the index it silently lands on some other video's row.
        # Clamp, verify, and raise instead of scoring the wrong video.
        missing = video_ids[np.minimum(rows, len(video_ids) - 1)] != wanted
        if missing.any():
            raise KeyError(f"candidate {wanted[missing][0]!r} is not in the index")
        return approx_jaccard_batch(query_vector, matrix[rows])

    # ------------------------------------------------------------------
    # Recommendation
    # ------------------------------------------------------------------
    def _score_arrays(
        self,
        query_id: str,
        candidates: list[str],
        omega: float,
        trace=NULL_TRACE,
        metrics: MetricsRegistry = _NO_METRICS,
        dtype: str = "float32",
        query_series=None,
        query_vector=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(content, social)`` score arrays for *candidates*, clipped to 1.

        Components a weight of *omega* would ignore are left as zeros, so
        a degraded (ω-renormalised) scan never touches the social store.
        The κJ and SAR stages are timed separately into *trace* and
        *metrics* (both default to no-op sinks).  *dtype* is the batch
        engine's κJ kernel width: the float32 packed bank by default,
        ``"float64"`` for the reference arithmetic (the scalar engine is
        float64 by construction).
        *query_series* / *query_vector* carry a guest query's signature
        series and materialized SAR vector — the sharded scatter path,
        where the query video is indexed on another shard.
        """
        zeros = np.zeros(len(candidates), dtype=np.float64)
        if not candidates:
            return zeros, zeros
        if self.engine == "batch":
            content_of = lambda q, c: self._content_scores_batch(
                q, c, dtype=dtype, query_series=query_series
            )
            social_of = lambda q, c: self._social_scores_batch(
                q, c, query_vector=query_vector
            )
        else:
            content_of = lambda q, c: self._content_scores_scalar(
                q, c, query_series=query_series
            )
            social_of = lambda q, c: self._social_scores_scalar(
                q, c, query_vector=query_vector
            )
        if omega < 1.0:
            with _stage(trace, metrics, "content_scores"):
                content = content_of(query_id, candidates)
        else:
            content = zeros
        if omega > 0.0:
            with _stage(trace, metrics, "social_scores"):
                social = social_of(query_id, candidates)
        else:
            social = zeros
        return np.minimum(content, 1.0), np.minimum(social, 1.0)

    def _degradation_reasons(self) -> list[str]:
        """Why (if at all) the social term must be dropped for this query."""
        if self.omega <= 0.0:
            return []
        store = self.index.social_store
        if not store.available:
            reason = store.unavailable_reason
            suffix = f" ({reason})" if reason else ""
            return [f"social store unavailable{suffix}; serving content-only ranking"]
        bound = self.max_social_staleness
        if bound is not None and store.skipped_mutations > bound:
            return [
                f"social store stale: {store.skipped_mutations} skipped "
                f"mutations exceed the bound of {bound}; "
                "serving content-only ranking"
            ]
        return []

    def component_scores(self, query_id: str) -> dict[str, tuple[float, float]]:
        """Both relevance components for every candidate, in one pass.

        Returns ``candidate_id -> (content, social)``.  Parameter sweeps
        (the ω bench) reuse this to re-rank under many fusion weights
        without recomputing any EMD.  Routed through the configured
        engine; both engines agree to float rounding.  This is the
        non-degrading API: an unavailable social store raises
        :class:`~repro.errors.SocialStoreUnavailableError` (use
        :meth:`recommend` for graceful content-only fallback).
        """
        if query_id not in self.index.series:
            raise KeyError(f"unknown video {query_id!r}")
        candidates = [vid for vid in self.index.video_ids if vid != query_id]
        # Always the full-precision, unpruned path: this is the float64
        # oracle the parameter sweeps and parity tests build on.
        content, social = self._score_arrays(
            query_id, candidates, self.omega, dtype="float64"
        )
        return {
            vid: (float(c), float(s))
            for vid, c, s in zip(candidates, content, social)
        }

    def recommend(
        self,
        query_id: str,
        top_k: int = 10,
        trace=None,
        deadline: float | None = None,
        query_series=None,
        query_vector=None,
        query_pack=None,
        initial_threshold: float | None = None,
    ) -> "Recommendations":
        """Rank every other video by FJ and return the best *top_k* ids.

        Serving never fails soft-dependency checks hard: with ω > 0 and
        the social store unavailable (or staler than
        ``max_social_staleness``), ω is renormalised to zero and the
        content-only ranking is returned flagged ``degraded``.  With a
        ``time_budget``, candidates are scored in chunks until the
        deadline; an expired budget returns the best-effort ranking over
        the scored prefix flagged ``partial`` (at least one chunk is
        always scored).  The result compares equal to the plain id list.

        *deadline* is an **absolute** ``time.monotonic()`` instant for
        this one request (the serving gateway's per-request deadline,
        minus whatever admission already spent).  It threads into the
        same chunked scan as ``time_budget``; when both are set the
        earlier instant wins.  A deadline that is already past still
        scores one chunk — a request never pays admission only to return
        nothing.

        Pass a :class:`~repro.obs.QueryTrace` as *trace* to collect the
        per-stage span tree (``candidates`` / ``content_scores`` /
        ``social_scores`` / ``fuse_topk``); the query is also recorded
        into the process-wide :func:`~repro.obs.get_metrics` registry
        (query/stage latency histograms, served/degraded/partial
        counters) unless that registry is disabled.

        A **guest query** — one indexed elsewhere, as in the sharded
        scatter path — passes its signature series as *query_series* (and,
        for the materialized SAR modes on epoch views, its SAR vector as
        *query_vector*); every indexed video then counts as a candidate.
        """
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        if query_series is None and query_id not in self.index.series:
            raise KeyError(f"unknown video {query_id!r}")
        metrics = get_metrics()
        if trace is None:
            trace = NULL_TRACE
        cutoff = None
        cutoff_reason = ""
        if self.time_budget is not None:
            cutoff = time.monotonic() + self.time_budget
            cutoff_reason = f"time budget of {self.time_budget}s expired"
        if deadline is not None:
            deadline = float(deadline)
            if cutoff is None or deadline < cutoff:
                cutoff = deadline
                cutoff_reason = "request deadline expired"
        with trace, metrics.time("repro_query_seconds"):
            with _stage(trace, metrics, "candidates"):
                reasons = self._degradation_reasons()
                omega = 0.0 if reasons else self.omega
                fast = (
                    cutoff is None
                    and bool(self.index.video_ids)
                    and self._pruned_scan_applicable(omega)
                )
                if fast:
                    bank = self.index.signature_bank()
                    pack = bank.fast_pack()
                    query_pos = pack.index_of.get(query_id)
                    fast = (
                        query_pos is not None or query_series is not None
                    ) and len(pack.ids) == len(self.index.video_ids)
                if not fast:
                    candidates = [
                        vid for vid in self.index.video_ids if vid != query_id
                    ]
            if fast:
                ranked, ranked_scores, scanned, total = self._scan_pruned(
                    query_id,
                    query_pos,
                    bank,
                    pack,
                    omega,
                    top_k,
                    trace,
                    metrics,
                    query_series=query_series,
                    query_vector=query_vector,
                    query_pack=query_pack,
                    initial_threshold=initial_threshold,
                )
                results = Recommendations(
                    ranked,
                    degraded=bool(reasons),
                    partial=False,
                    reasons=reasons,
                    scored=total,
                    total=total,
                    scores=ranked_scores,
                )
                metrics.inc("repro_queries_total", engine=self.engine)
                metrics.inc("repro_candidates_scored_total", scanned)
                if total > scanned:
                    metrics.inc("repro_candidates_pruned_total", total - scanned)
                if results.degraded:
                    metrics.inc("repro_queries_degraded_total")
                return results
            total = len(candidates)
            if cutoff is None:
                scored = candidates
                content, social = self._score_arrays(
                    query_id,
                    candidates,
                    omega,
                    trace=trace,
                    metrics=metrics,
                    query_series=query_series,
                    query_vector=query_vector,
                )
            else:
                scored = []
                content_parts: list[np.ndarray] = []
                social_parts: list[np.ndarray] = []
                for start in range(0, total, _BUDGET_CHUNK):
                    chunk = candidates[start : start + _BUDGET_CHUNK]
                    chunk_content, chunk_social = self._score_arrays(
                        query_id,
                        chunk,
                        omega,
                        trace=trace,
                        metrics=metrics,
                        query_series=query_series,
                        query_vector=query_vector,
                    )
                    content_parts.append(chunk_content)
                    social_parts.append(chunk_social)
                    scored.extend(chunk)
                    if len(scored) < total and time.monotonic() >= cutoff:
                        reasons = reasons + [
                            f"{cutoff_reason} after "
                            f"{len(scored)}/{total} candidates; ranking the "
                            "scored prefix"
                        ]
                        break
                content = (
                    np.concatenate(content_parts)
                    if content_parts
                    else np.zeros(0, dtype=np.float64)
                )
                social = (
                    np.concatenate(social_parts)
                    if social_parts
                    else np.zeros(0, dtype=np.float64)
                )
            with _stage(trace, metrics, "fuse_topk"):
                components = {
                    vid: (float(c), float(s))
                    for vid, c, s in zip(scored, content, social)
                }
                ranked, ranked_scores = rank_components_scored(
                    components, omega, top_k
                )
        results = Recommendations(
            ranked,
            degraded=bool(reasons),
            partial=len(scored) < total,
            reasons=reasons,
            scored=len(scored),
            total=total,
            scores=ranked_scores,
        )
        metrics.inc("repro_queries_total", engine=self.engine)
        metrics.inc("repro_candidates_scored_total", len(scored))
        if results.degraded:
            metrics.inc("repro_queries_degraded_total")
        if results.partial:
            metrics.inc("repro_queries_partial_total")
        return results

    # ------------------------------------------------------------------
    # Pruned fast scan (batch engine, no deadline)
    # ------------------------------------------------------------------
    def _pruned_scan_applicable(self, omega: float) -> bool:
        """Whether the position-addressed pruned scan can serve *omega*.

        It needs array kernels end-to-end: the batch engine, κJ content
        (unless ω = 1 skips content entirely), and a materialized SAR or
        sketch matrix for the social term (unless ω = 0 skips it).
        Anything else falls back to the id-addressed scan.
        """
        if self.engine != "batch":
            return False
        if omega < 1.0 and self.content_measure_name != "kj":
            return False
        if omega > 0.0 and self.social_mode not in ("sar", "sar-h", "sketch"):
            return False
        return True

    def _scan_pruned(
        self,
        query_id,
        query_pos,
        bank,
        pack,
        omega,
        top_k,
        trace,
        metrics,
        query_series=None,
        query_vector=None,
        query_pack=None,
        initial_threshold=None,
    ):
        """Bound-ordered top-k scan over pack positions.

        Candidates are visited in descending order of a cheap fused-score
        upper bound — exact social term plus a per-video κJ cap derived
        from the segment-CDF EMD lower bound (DESIGN §12) — in doubling
        blocks clipped to the qualifying prefix; the scan stops as soon
        as every remaining bound falls strictly below the current k-th
        best fused score.  Ties at the boundary are always scored, so the
        returned ranking (ties broken by ascending id) is identical to
        the exhaustive scan's.

        Returns ``(ranked ids, their fused scores, candidates actually
        scored, total candidates)``.

        ``query_pos=None`` marks a guest query (indexed on another shard):
        every pack position is a candidate, the query-side keys come from
        :meth:`~repro.measures.content.SignatureFastPack.pack_query` over
        *query_series*, and the social term uses *query_vector*.  A
        scatter path that already packed the query against the pinned
        layout passes ``(keys, values, weights, seg_integrals)`` as
        *query_pack* — pack output depends only on the query and the
        pinned offset (and the integrals only on the pinned grid), so
        the whole tuple is shard-independent and safe to share.

        *initial_threshold* seeds the pruning threshold with a fused
        score known to be attainable elsewhere (the scatter-gather's
        running merged k-th best).  Candidates whose upper bound falls
        strictly below it can never enter the **merged** top-k, so the
        qualifying prefix starts trimmed; boundary ties (bound ==
        threshold) are kept and scored, exactly like the in-scan
        threshold, which preserves bitwise merged parity.
        """
        index = self.index
        n = len(pack.ids)
        if query_pos is None:
            positions = np.arange(n, dtype=np.int64)
        else:
            positions = np.empty(n - 1, dtype=np.int64) if n else np.empty(0, np.int64)
            positions[:query_pos] = np.arange(query_pos)
            positions[query_pos:] = np.arange(query_pos + 1, n)
        m = positions.size
        if m == 0:
            return [], [], 0, 0

        if omega > 0.0:
            with _stage(trace, metrics, "social_scores"):
                # An indexed query's SAR vector is a row of the
                # materialized matrix (rows follow pack position order, as
                # the candidate gather relies on) — no per-query
                # descriptor vectorization.  A guest query brings its
                # vector along (or, on live indexes, vectorizes its
                # replicated descriptor).
                if self.social_mode == "sketch":
                    matrix, sketch_sizes = index.sketch_matrix()
                    if query_pos is not None:
                        query_row = matrix[query_pos]
                        query_size = int(sketch_sizes[query_pos])
                    elif query_vector is not None:
                        query_row, query_size = query_vector
                    else:
                        config = index.config
                        query_row, query_size = sketch_users(
                            index.descriptor(query_id).users,
                            bits=config.sketch_bits,
                            seed=config.sketch_seed,
                        )
                    if query_pos is None:
                        cand_rows, cand_sizes = matrix, sketch_sizes
                    else:
                        cand_rows = matrix[positions]
                        cand_sizes = sketch_sizes[positions]
                    social = sketch_jaccard_batch(
                        query_row, query_size, cand_rows, cand_sizes
                    )
                else:
                    matrix = index.sar_matrix(self.social_mode)
                    if query_pos is not None:
                        qvec = matrix[query_pos]
                    elif query_vector is not None:
                        qvec = query_vector
                    else:
                        vectorizer = (
                            index.sar if self.social_mode == "sar" else index.sar_h
                        )
                        qvec = vectorizer.vectorize(index.descriptor(query_id))
                    if query_pos is None:
                        # Guest candidates are every pack position in order:
                        # the gather would copy the whole SAR matrix.
                        cand_rows = matrix
                    else:
                        cand_rows = matrix[positions]
                    social = approx_jaccard_batch(qvec, cand_rows)
                np.minimum(social, 1.0, out=social)
        else:
            social = np.zeros(m, dtype=np.float64)

        def _rank_top(selection, fused):
            # (-score, id) order; positions ascend with ids, so the
            # position itself is the tie-break key.
            order = np.lexsort((positions[selection], -fused))[:top_k]
            chosen = selection[order]
            return pack.ids[positions[chosen]].tolist(), fused[order].tolist()

        if omega >= 1.0:
            # Pure social ranking: no content arithmetic at all, exactly
            # like the id-addressed scan's zero-content fusion.
            with _stage(trace, metrics, "fuse_topk"):
                fused = (1.0 - omega) * np.zeros(m, dtype=np.float64)
                fused += omega * social
                ranked, ranked_scores = _rank_top(np.arange(m), fused)
            return ranked, ranked_scores, m, m

        series = query_series if query_series is not None else index.series[query_id]
        threshold = index.config.match_threshold
        with _stage(trace, metrics, "content_scores"):
            n1 = len(series)
            # An indexed query's sorted/normalised/key-encoded rows and
            # its bound integrals are pack slices — no per-query packing
            # work at all.  A guest query packs once against the same
            # offset, so its keys (and therefore its scores) are bitwise
            # what they would be if it were indexed here.
            if query_pos is not None:
                query_keys, query_rows = pack.query_keys_at(query_pos)
                query_integrals = pack.seg_integrals[query_rows]
            elif query_pack is not None:
                # Scatter-shared integrals: valid because the sharded
                # coordinator pins one grid across every shard.
                query_keys, _values, _weights, query_integrals = query_pack
            else:
                query_keys, q_values, q_weights = pack.pack_query(series)
                # Guest queries derive their segment integrals on the
                # pack's own grid — the bound inequality holds for any
                # grid, so pruning stays sound.
                query_integrals = _segment_integrals(
                    q_values, q_weights, grid=pack.grid
                )[1]
            # κJ cap per candidate from the segment-CDF EMD lower bound
            # (DESIGN §12).  For any grid segmentation,
            # EMD(A, B) = ∫|F - G| >= Σ_t |∫_t F - ∫_t G|, so each
            # (query sig, bank row) pair gets a SimC ceiling 1 / (1 + LB);
            # pairs whose ceiling misses the match threshold can never be
            # matched.  Per candidate video: matched pairs M <= min(#query
            # sigs with any eligible partner, n2), matched SimC total <=
            # min(Σ_i best-ceiling_i, M), and κJ = total/union <=
            # total_cap / (n1 + n2 - M).
            seg = pack.seg_integrals
            segments = seg.shape[1]
            workspace = get_workspace()
            lower = workspace.get("bound_lower", (n1, seg.shape[0]), np.float32)
            # Chunked so the (n1, chunk, SEGMENTS) float32 scratch stays
            # cache-sized at large community scale; explicit out= buffers
            # keep the per-query path allocation-free.
            step = 8192
            scratch = workspace.get(
                "bound_scratch", (n1, min(step, seg.shape[0]), segments), np.float32
            )
            for chunk_start in range(0, seg.shape[0], step):
                chunk_stop = min(seg.shape[0], chunk_start + step)
                part = scratch[:, : chunk_stop - chunk_start]
                np.subtract(
                    query_integrals[:, None, :],
                    seg[None, chunk_start:chunk_stop, :],
                    out=part,
                )
                np.abs(part, out=part)
                # Segment-sum as a BLAS gemv against a ones vector — ~3x
                # faster than np.sum over the tiny last axis.
                np.matmul(
                    part,
                    _bound_ones(segments),
                    out=lower[:, chunk_start:chunk_stop],
                )
            # The SimC ceiling 1 / (1 + max(LB - 1e-3, 0)) decreases
            # monotonically in LB, so per-pair arithmetic reduces first
            # (min LB per video) and maps after — three passes over the
            # (n1, rows) matrix instead of a dozen.  The eligibility cut
            # inverts "ceiling >= threshold" into LB space; the 1e-3 slack
            # absorbs float32 drift of both sides' integrals and kernel
            # rounding of computed EMDs.
            cut = (
                np.float32(1.0 / threshold - 1.0 + 1e-3)
                if threshold > 0.0
                else np.float32(np.inf)
            )
            best_lower = np.minimum.reduceat(lower, pack.starts, axis=1)
            best = 1.0 / (1.0 + np.maximum(best_lower - 1e-3, 0.0))
            best[best_lower > cut] = 0.0
            sig_edges = (best > 0.0).sum(axis=0)
            matched_cap = np.minimum(sig_edges, pack.counts)
            total_cap = np.minimum(best.sum(axis=0), matched_cap)
            caps = (total_cap / (n1 + pack.counts - matched_cap))[positions]
            # Inflate by the kernel's relative error budget so a float32
            # EMD rounding up can never push a computed κJ past its cap.
            caps *= 1.0 + 2e-6
            np.minimum(caps, 1.0, out=caps)
            bounds = (1.0 - omega) * caps
            if omega > 0.0:
                bounds += omega * social
            order = np.argsort(-bounds, kind="stable")
            descending = -bounds[order]

            scores = np.empty(m, dtype=np.float64)
            scanned = 0
            limit = m
            # The first block is sized so the typical query's qualifying
            # prefix (~2-3x top_k in practice) fits in ONE kernel call —
            # a handful of extra vectorized EMD rows cost far less than a
            # second block's worth of gather/kernel/greedy dispatch.
            block = max(32, 2 * top_k)
            if initial_threshold is not None:
                # A fused score this good already exists elsewhere in the
                # scatter: start from its qualifying prefix, in one kernel
                # call — doubling blocks' fixed dispatch cost dominates at
                # trimmed sizes.
                limit = int(
                    np.searchsorted(descending, -float(initial_threshold), side="right")
                )
                block = max(block, min(limit, 256))
            while scanned < limit:
                selection = order[scanned : min(scanned + block, limit)]
                content = bank.kappa_j_scores_at(
                    query_keys, positions[selection], threshold, pack=pack
                )
                np.minimum(content, 1.0, out=content)
                fused = (1.0 - omega) * content
                if omega > 0.0:
                    fused += omega * social[selection]
                scores[scanned : scanned + selection.size] = fused
                scanned += selection.size
                if scanned >= top_k:
                    kth = np.partition(scores[:scanned], scanned - top_k)[
                        scanned - top_k
                    ]
                    if initial_threshold is not None and initial_threshold > kth:
                        kth = float(initial_threshold)
                    # bounds[order] descends, so bisection finds the
                    # qualifying prefix (bound >= kth; boundary ties are
                    # kept and scored) — nothing past it can displace the
                    # current k-th best, and later blocks never score it.
                    limit = max(
                        scanned,
                        int(np.searchsorted(descending, -kth, side="right")),
                    )
                # 1024 candidates x ~6 rows x 2 sides of merge scratch
                # keeps the kernel's working set inside L2/L3; bigger
                # blocks trade cache locality for no fewer numpy calls.
                block = min(2 * block, 1024)

        with _stage(trace, metrics, "fuse_topk"):
            ranked, ranked_scores = _rank_top(order[:scanned], scores[:scanned])
        return ranked, ranked_scores, scanned, m


def rank_components_scored(
    components: dict[str, tuple[float, float]], omega: float, top_k: int
) -> tuple[list[str], list[float]]:
    """Rank already-computed component scores; returns ``(ids, fused scores)``."""
    scored = sorted(
        ((fuse_fj(content, social, omega), candidate_id)
         for candidate_id, (content, social) in components.items()),
        key=lambda pair: (-pair[0], pair[1]),
    )
    top = scored[:top_k]
    return [candidate_id for _, candidate_id in top], [score for score, _ in top]


def rank_components(
    components: dict[str, tuple[float, float]], omega: float, top_k: int
) -> list[str]:
    """Rank already-computed component scores under fusion weight *omega*."""
    return rank_components_scored(components, omega, top_k)[0]


def content_recommender(
    index: CommunityIndex, content_measure: str = "kj", engine: str | None = None
) -> FusionRecommender:
    """CR — content relevance only [35]."""
    return FusionRecommender(
        index, omega=0.0, content_measure=content_measure, name="CR", engine=engine
    )


def social_recommender(index: CommunityIndex, engine: str | None = None) -> FusionRecommender:
    """SR — social relevance only (exact sJ)."""
    return FusionRecommender(
        index, omega=1.0, social_mode="exact", name="SR", engine=engine
    )


def csf_recommender(
    index: CommunityIndex, omega: float | None = None, engine: str | None = None
) -> FusionRecommender:
    """CSF — content-social fusion with exact (naive-cost) social relevance."""
    return FusionRecommender(
        index, omega=omega, social_mode="naive", name="CSF", engine=engine
    )


def csf_sar_recommender(
    index: CommunityIndex, omega: float | None = None, engine: str | None = None
) -> FusionRecommender:
    """CSF-SAR — fusion with sorted-dictionary SAR approximation."""
    return FusionRecommender(
        index, omega=omega, social_mode="sar", name="CSF-SAR", engine=engine
    )


def csf_sar_h_recommender(
    index: CommunityIndex, omega: float | None = None, engine: str | None = None
) -> FusionRecommender:
    """CSF-SAR-H — fusion with chained-hash SAR approximation."""
    return FusionRecommender(
        index, omega=omega, social_mode="sar-h", name="CSF-SAR-H", engine=engine
    )
