"""Configuration of the content-social recommender.

Defaults mirror the paper's tuned values: fusion weight ``omega = 0.7``
(its Figure 8) and ``k = 60`` sub-communities (its Figure 9).  The content
pipeline defaults (8x8 block grid, bigram signatures) follow Section 4.1's
simplifications.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RecommenderConfig"]


@dataclass(frozen=True)
class RecommenderConfig:
    """All knobs of the recommendation system in one immutable bundle.

    Attributes
    ----------
    omega:
        Weight of the social relevance in the FJ fusion (Eq. 9).
    k:
        Number of sub-communities for SAR.
    grid:
        Block lattice resolution per keyframe.
    merge_threshold:
        Intensity tolerance of the spatial block merge.
    q:
        q-gram length (the paper uses bigrams).
    keyframes_per_segment:
        Keyframes sampled per shot segment.
    match_threshold:
        Minimum SimC for a signature pair to count as matched in κJ.
    embedding_range:
        ``(lo, hi)`` value range of the EMD -> L1 embedding grid.
    embedding_resolution:
        Bins of the embedding grid.
    lsh_projections, lsh_bits, lsh_width, lsh_trees:
        LSB index parameters (see :class:`repro.index.lsb.LsbIndex`).
    knn_content_budget:
        Candidate entries pulled from the LSB index per query signature.
    knn_social_budget:
        Social candidates pulled from the inverted file per query.
    uig_pair_cap:
        Optional cap on per-video UIG edge generation for very dense
        comment volumes (``None`` = exact, the paper's definition).
    sketch_bits:
        Width of the per-video odd sketches backing
        ``social_mode="sketch"`` (multiple of 64; see
        :mod:`repro.social.sketch`).
    sketch_seed:
        Hash seed of the sketch bit positions; part of the index
        identity — replicas and snapshots must agree on it.
    engine:
        Default scoring engine of :class:`repro.core.recommender.FusionRecommender`:
        ``"batch"`` (vectorized array kernels, the production path) or
        ``"scalar"`` (per-pair Python calls, kept for parity testing and
        the Figure-12 wall-clock benches).  The batch engine serves
        through the pruned float32 scan whenever its kernels cover the
        configured measures (see :mod:`repro.core.recommender`).
    max_social_staleness:
        Degraded-serving bound: when the social store reports more than
        this many skipped (lost) mutations, ``recommend`` serves
        content-only results flagged ``degraded`` instead of fusing stale
        social relevance.  ``None`` (default) never degrades on staleness.
    time_budget:
        Per-query wall-clock budget in seconds for ``recommend``; when the
        candidate scan exceeds it, the best-effort partial ranking is
        returned flagged ``partial``/``degraded``.  ``None`` = unlimited.
    knn_probes:
        LSB multi-probe width — how many of the ``lsh_trees`` hash
        tables each KNN candidate lookup probes.  ``None`` (default)
        probes all trees; smaller values shrink the candidate set before
        scoring at some recall cost (see the bench sweep).
    """

    omega: float = 0.7
    k: int = 60
    grid: int = 8
    merge_threshold: float = 6.0
    q: int = 2
    keyframes_per_segment: int = 3
    match_threshold: float = 0.2
    embedding_range: tuple[float, float] = (-64.0, 64.0)
    embedding_resolution: int = 64
    lsh_projections: int = 4
    lsh_bits: int = 8
    lsh_width: float = 2.0
    lsh_trees: int = 2
    knn_content_budget: int = 24
    knn_social_budget: int = 64
    uig_pair_cap: int | None = None
    sketch_bits: int = 512
    sketch_seed: int = 0
    engine: str = "batch"
    max_social_staleness: int | None = None
    time_budget: float | None = None
    knn_probes: int | None = None

    def __post_init__(self) -> None:
        if self.max_social_staleness is not None and self.max_social_staleness < 0:
            raise ValueError(
                f"max_social_staleness must be >= 0, got {self.max_social_staleness}"
            )
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError(f"time_budget must be > 0, got {self.time_budget}")
        if self.engine not in ("scalar", "batch"):
            raise ValueError(
                f"engine must be 'scalar' or 'batch', got {self.engine!r}"
            )
        if self.sketch_bits < 64 or self.sketch_bits % 64 != 0:
            raise ValueError(
                f"sketch_bits must be a positive multiple of 64, got {self.sketch_bits}"
            )
        if self.knn_probes is not None and self.knn_probes < 1:
            raise ValueError(f"knn_probes must be >= 1, got {self.knn_probes}")
        if not 0.0 <= self.omega <= 1.0:
            raise ValueError(f"omega must be in [0, 1], got {self.omega}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.grid < 1:
            raise ValueError(f"grid must be >= 1, got {self.grid}")
        if self.q < 2:
            raise ValueError(f"q must be >= 2, got {self.q}")
        lo, hi = self.embedding_range
        if not lo < hi:
            raise ValueError(f"empty embedding range {self.embedding_range}")

    def with_omega(self, omega: float) -> "RecommenderConfig":
        """Copy with a different fusion weight (for the ω sweep)."""
        from dataclasses import replace

        return replace(self, omega=omega)

    def with_k(self, k: int) -> "RecommenderConfig":
        """Copy with a different sub-community count (for the k sweep)."""
        from dataclasses import replace

        return replace(self, k=k)
