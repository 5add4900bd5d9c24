"""Content relevance: SimC (Eq. 3) and the extended Jaccard κJ (Eq. 4).

``SimC(C1, C2) = 1 / (1 + EMD(C1, C2))`` maps the EMD between two cuboid
signatures into a ``(0, 1]`` similarity.

``κJ(S1, S2)`` extends the Jaccard coefficient from exact set intersection
to *soft* intersection: matched signature pairs contribute their SimC value
to the numerator, and the denominator is the size of the union under the
matching.  The paper's Eq. 4 leaves the pair-matching implicit ("the
similarity between matched video cuboid signatures"); we implement a
one-to-one greedy matching over descending SimC with a minimum-similarity
threshold, plus a literal all-pairs variant for the ablation bench.

Two execution paths compute the SimC matrix:

* **scalar** — one :func:`repro.emd.one_dim.emd_1d` call per signature
  pair (the original per-pair path, kept for parity testing and the
  Figure-12 wall-clock benches);
* **batch** — one :func:`repro.emd.one_dim.emd_1d_one_vs_many` call per
  *query* signature against padded candidate matrices.
  :class:`SignatureBank` extends this to one query against every series
  in a community at once, which is what the batch recommendation engine
  drives.

Both paths share :func:`_greedy_match`, so the matching semantics are
identical by construction.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.emd.one_dim import (
    EMD_KEY_WEIGHT_SIGN,
    PackedDistributions,
    emd_1d,
    emd_1d_one_vs_many,
    emd_1d_sorted_keys_many_vs_many,
    get_workspace,
    pack_emd_keys,
)
from repro.signatures.cuboid import CuboidSignature
from repro.signatures.series import SignatureSeries

__all__ = [
    "sim_c",
    "kappa_j",
    "kappa_j_all_pairs",
    "pairwise_sim_matrix",
    "SignatureBank",
    "SignatureFastPack",
]


def sim_c(first: CuboidSignature, second: CuboidSignature) -> float:
    """EMD-derived similarity between two cuboid signatures (Eq. 3)."""
    distance = emd_1d(first.values, first.weights, second.values, second.weights)
    return 1.0 / (1.0 + distance)


def _sim_matrix_vs_packed(
    query: SignatureSeries, packed: PackedDistributions
) -> np.ndarray:
    """``(len(query), len(packed))`` SimC matrix via the batched EMD kernel."""
    matrix = np.empty((len(query), len(packed)), dtype=np.float64)
    for i, signature in enumerate(query):
        matrix[i] = emd_1d_one_vs_many(
            signature.values, signature.weights, packed.values, packed.weights
        )
    np.reciprocal(1.0 + matrix, out=matrix)
    return matrix


def pairwise_sim_matrix(
    first: SignatureSeries, second: SignatureSeries, engine: str = "scalar"
) -> np.ndarray:
    """``(len(first), len(second))`` matrix of SimC values.

    ``engine="batch"`` computes each row with one vectorized
    :func:`emd_1d_one_vs_many` call over *second*'s padded arrays instead
    of a Python double loop; results agree with the scalar path to float
    rounding (well under 1e-9).
    """
    if engine == "batch":
        return _sim_matrix_vs_packed(first, second.packed)
    matrix = np.empty((len(first), len(second)), dtype=np.float64)
    for i, sig_a in enumerate(first):
        for j, sig_b in enumerate(second):
            matrix[i, j] = sim_c(sig_a, sig_b)
    return matrix


def _greedy_match(matrix: np.ndarray, match_threshold: float) -> tuple[float, int]:
    """One-to-one greedy matching over descending SimC.

    Returns ``(sum of matched SimC, number of matched pairs)``.  Shared by
    the scalar and batch κJ paths so their matching semantics cannot
    diverge.
    """
    n1, n2 = matrix.shape
    order = np.argsort(matrix, axis=None)[::-1]
    used_rows = np.zeros(n1, dtype=bool)
    used_cols = np.zeros(n2, dtype=bool)
    matched_total = 0.0
    matched_count = 0
    for flat in order:
        i, j = divmod(int(flat), n2)
        value = matrix[i, j]
        if value < match_threshold:
            break
        if used_rows[i] or used_cols[j]:
            continue
        used_rows[i] = True
        used_cols[j] = True
        matched_total += float(value)
        matched_count += 1
    return matched_total, matched_count


def _greedy_match_many(
    blocks: np.ndarray, match_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized greedy matching over a stack of SimC blocks.

    *blocks* is a ``(B, n1, n2max)`` stack — one padded SimC matrix per
    candidate, pad cells set to ``-1`` (below any reachable SimC, which
    is always positive) — stored with BOTH signature axes reversed:
    cell ``[b, i, j]`` holds the SimC of query signature ``n1-1-i`` vs
    candidate signature ``n2max-1-j``.  Reversing the layout turns
    :func:`_greedy_match`'s tie rule (descending value, then descending
    flat index in natural order) into a plain first-occurrence ``argmax``
    over contiguous memory — an argmax over a negative-stride reverse
    view is several times slower.  Each round takes every candidate's
    current maximum, accepts it when it clears *match_threshold*, and
    masks its row and column; all candidates advance together, so the
    Python-level loop runs at most ``min(n1, n2max)`` times regardless
    of B.  *blocks* is consumed (mutated).

    Returns ``(matched totals, matched counts)`` as ``(B,)`` vectors;
    totals accumulate in float64 in the same descending-value order as
    the scalar matcher.
    """
    many, n1, n2 = blocks.shape
    flat = blocks.reshape(many, n1 * n2)
    totals = np.zeros(many, dtype=np.float64)
    counts = np.zeros(many, dtype=np.int64)
    batch = np.arange(many)
    for _ in range(min(n1, n2)):
        # First flat maximum in reversed layout == last in natural
        # layout — _greedy_match's reversed-stable-argsort tie order.
        index = flat.argmax(axis=1)
        values = flat[batch, index]
        active = values >= match_threshold
        if not active.any():
            break
        # Exhausted candidates ride along unfiltered: masking their
        # current (sub-threshold) maximum changes nothing they could
        # still match, and skipping the fancy-index subsetting keeps the
        # round at a fixed handful of full-batch ops.
        np.add(totals, values, out=totals, where=active)
        counts += active
        row, col = np.divmod(index, n2)
        blocks[batch, row, :] = -1.0
        blocks[batch, :, col] = -1.0
    return totals, counts


def _segment_integrals(
    values: np.ndarray,
    weights: np.ndarray,
    grid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row CDF integrals over a uniform grid — the EMD bound precompute.

    For a step CDF ``G`` with atoms ``(v_k, w_k)``, the integral over a
    segment ``[a, b]`` is ``Σ_k w_k · (b - clip(v_k, a, b))``.  Returns
    ``(grid, integrals)`` with *integrals* shaped ``(rows, SEGMENTS)`` —
    accumulated in float64, stored float32 (the bound arithmetic runs in
    float32; the scan's 1e-3 slack dwarfs the rounding).  When *grid* is
    omitted it spans the value range of *values* (a degenerate range
    yields all-zero integrals, which makes the bound vacuous but still
    valid).  Chunked over rows to bound the temporary
    ``(chunk, width, SEGMENTS)`` broadcast.
    """
    segments = SignatureFastPack.SEGMENTS
    if grid is None:
        grid = np.linspace(
            float(values.min()), float(values.max()), segments + 1
        )
    rows = values.shape[0]
    integrals = np.empty((rows, segments), dtype=np.float32)
    lower = grid[None, None, :-1]
    upper = grid[None, None, 1:]
    chunk = max(1, (1 << 22) // max(1, values.shape[1] * segments))
    for start in range(0, rows, chunk):
        stop = min(rows, start + chunk)
        v = values[start:stop, :, None].astype(np.float64)
        w = weights[start:stop, :, None].astype(np.float64)
        integrals[start:stop] = (w * (upper - np.clip(v, lower, upper))).sum(axis=1)
    return grid, integrals


class SignatureFastPack:
    """Float32 scoring view of a :class:`SignatureBank`, packed per epoch.

    Rows are gathered live-only in sorted video-id order and **row-sorted
    ascending by value** (weights permuted alongside), so the sorted-merge
    EMD kernel never re-sorts candidate rows at query time.  Built lazily
    by :meth:`SignatureBank.fast_pack` and keyed on the bank's mutation
    version — one pack per published epoch, shared by every query and by
    copy-on-write bank snapshots.

    Attributes
    ----------
    version:
        The bank mutation version this pack reflects.
    values / weights:
        ``(live_rows, width)`` float32 row-sorted matrices.
    starts / counts:
        ``(N,)`` int64 per-video row offsets/lengths, aligned with
        :attr:`ids` (sorted video-id order).
    ids:
        ``(N,)`` numpy string array of the packed video ids.
    index_of:
        ``video_id -> position`` into :attr:`ids`.
    keys / offset:
        ``(live_rows, width)`` int64 candidate-side merge keys
        (:func:`repro.emd.one_dim.pack_emd_keys`, weights negated),
        encoded once per pack so block scoring gathers a single array
        and skips per-call key construction; *offset* is the value shift
        the keys were encoded under (``pack min - 1``), which any
        query-side encoding must share.
    row_sizes:
        ``(live_rows,)`` int64 count of nonzero-weight entries per row.
        Zero-weight pads never move an EMD, so scoring trims each block's
        trailing pad columns to the block's widest real row — merge-sort
        cost follows actual signature sizes, not the pack-wide maximum.
    grid / seg_integrals:
        Pruning-bound precompute: *grid* is a ``(SEGMENTS + 1,)`` float64
        uniform grid over the pack's value range and *seg_integrals* a
        ``(live_rows, SEGMENTS)`` float32 matrix of per-row CDF integrals
        over each grid segment.  1-D EMD is ``∫|F - G|``, so for any
        segmentation ``Σ_t |∫_t F - ∫_t G|`` is a lower bound (triangle
        inequality per segment); the pruned scan turns it into per-pair
        SimC caps and per-video κJ caps (DESIGN §12).
    """

    #: Grid segments of the pruning bound.  More segments tighten the
    #: EMD lower bound (SEGMENTS = 1 degenerates to the mean-gap bound)
    #: at O(rows * SEGMENTS) per-query bound cost.
    SEGMENTS = 8

    __slots__ = (
        "version",
        "values",
        "weights",
        "starts",
        "counts",
        "ids",
        "index_of",
        "keys",
        "offset",
        "row_sizes",
        "grid",
        "seg_integrals",
    )

    def __init__(
        self,
        version,
        values,
        weights,
        starts,
        counts,
        ids,
        index_of,
        keys,
        offset,
        row_sizes,
        grid,
        seg_integrals,
    ):
        self.version = version
        self.values = values
        self.weights = weights
        self.starts = starts
        self.counts = counts
        self.ids = ids
        self.index_of = index_of
        self.keys = keys
        self.offset = offset
        self.row_sizes = row_sizes
        self.grid = grid
        self.seg_integrals = seg_integrals

    def query_keys_at(self, position: int) -> tuple[np.ndarray, slice]:
        """Query-side merge keys for the packed video at *position*.

        The hot path's queries are themselves indexed videos, so their
        rows already sit in the pack — sorted, normalised, float32 and
        key-encoded.  Candidate-side keys differ from query-side keys
        only in the weight sign, so one vectorized XOR of the float32
        sign bit in the low payload half turns the video's pack rows
        into query keys; no per-signature Python loop, no re-encoding.
        Returns ``(keys, rows)`` with *rows* the pack row slice (the
        pruned scan reads :attr:`seg_integrals` through it).
        """
        start = int(self.starts[position])
        rows = slice(start, start + int(self.counts[position]))
        width = int(self.row_sizes[rows].max())
        return self.keys[rows, :width] ^ EMD_KEY_WEIGHT_SIGN, rows

    def pack_query(
        self, query: SignatureSeries
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Query-side ``(keys, values, weights)`` matrices for *query*.

        All three are ``(n1, max_cuboids)`` and row-padded to the
        bank-pack layout (pads equal each row's maximum and carry zero
        weight): *keys* are int64 merge keys for the batched merge-sort
        kernel (:func:`repro.emd.one_dim.pack_emd_keys`), *values* /
        *weights* the float32 matrices they encode (the pruned scan
        derives its query-side CDF segment integrals from them).  The
        query-side sort, weight normalisation and key encoding happen
        once here and are reused by every scoring block of the query's
        scan.  Keys share the pack's value offset, so every query value
        must exceed ``pack min - 1`` (any value inside the pack's range
        qualifies; :func:`repro.emd.one_dim.pack_emd_keys` raises
        otherwise).  Indexed queries should prefer :meth:`query_keys_at`,
        which skips this construction entirely.
        """
        n1 = len(query)
        nq = max(signature.size for signature in query)
        values = np.empty((n1, nq), dtype=np.float32)
        weights = np.zeros((n1, nq), dtype=np.float32)
        for i, signature in enumerate(query):
            order = np.argsort(signature.values, kind="stable")
            row_values = np.asarray(signature.values, dtype=np.float64).reshape(-1)
            row_weights = np.asarray(signature.weights, dtype=np.float64).reshape(-1)
            row_weights = row_weights / row_weights.sum()
            size = row_values.size
            values[i, :size] = row_values[order]
            weights[i, :size] = row_weights[order]
            values[i, size:] = values[i, size - 1]
        return pack_emd_keys(values, weights, offset=self.offset), values, weights


def kappa_j(
    first: SignatureSeries,
    second: SignatureSeries,
    match_threshold: float = 0.2,
    sim_matrix: np.ndarray | None = None,
) -> float:
    """Extended Jaccard similarity between two signature series (Eq. 4).

    Pairs are matched greedily by descending SimC; only pairs with SimC at
    least *match_threshold* count as matched.  With ``M`` matched pairs the
    result is ``sum(matched SimC) / (|S1| + |S2| - M)`` — reducing to the
    classic Jaccard coefficient when all matched similarities are exactly 1.

    Parameters
    ----------
    sim_matrix:
        Optional precomputed :func:`pairwise_sim_matrix` (benchmarks reuse
        it across threshold sweeps, and the batch engine passes in slices
        of a :class:`SignatureBank` matrix) — the matching step consumes
        scalar- and batch-computed matrices identically.
    """
    if not 0.0 <= match_threshold <= 1.0:
        raise ValueError(f"match_threshold must be in [0, 1], got {match_threshold}")
    matrix = sim_matrix if sim_matrix is not None else pairwise_sim_matrix(first, second)
    n1, n2 = matrix.shape
    matched_total, matched_count = _greedy_match(matrix, match_threshold)
    union = n1 + n2 - matched_count
    return matched_total / union if union > 0 else 0.0


def kappa_j_all_pairs(first: SignatureSeries, second: SignatureSeries) -> float:
    """Literal all-pairs reading of Eq. 4 (ablation variant).

    Sums SimC over *every* cross pair and divides by ``|S1| + |S2|``.  Less
    selective than the matched version — kept to quantify how much the
    matching step matters.
    """
    matrix = pairwise_sim_matrix(first, second)
    return float(matrix.sum()) / (len(first) + len(second))


class SignatureBank:
    """All of a community's signatures stacked for one-vs-all κJ scoring.

    Concatenates every series' cuboid value/weight arrays into one padded
    matrix pair (rows grouped per video), so a query series needs only
    ``len(query)`` vectorized EMD calls to obtain the SimC matrices
    against *every* candidate, after which the per-candidate greedy
    matching runs on column slices.  This is the content kernel of the
    batch recommendation engine.

    The bank is **incrementally maintainable**: :meth:`append` adds a
    video's rows at the tail (amortised-O(rows) via capacity doubling),
    :meth:`remove` tombstones a video's rows in place, and
    :meth:`compact` reclaims dead rows and re-packs to the live maximum
    signature width.  Removal compacts automatically when the dead
    fraction exceeds 50% *or* when the padded width could shrink — the
    latter keeps batch scores bit-identical to a bank built cold from the
    same live series (padding width perturbs float reduction order).
    """

    def __init__(self, series: dict[str, SignatureSeries]) -> None:
        if not series:
            raise ValueError("cannot build a SignatureBank from no series")
        self.video_ids: list[str] = []
        self._series: dict[str, SignatureSeries] = {}
        self._row_slices: dict[str, slice] = {}
        self._count = 0
        self._dead_rows = 0
        self._width = 0
        self._values = np.empty((0, 0), dtype=np.float64)
        self._weights = np.empty((0, 0), dtype=np.float64)
        self._lengths = np.empty(0, dtype=np.int64)
        self._pads = np.empty(0, dtype=np.float64)
        self._version = 0
        self._fast_pack: SignatureFastPack | None = None
        self._pinned_width = 0
        self._pinned_offset: float | None = None
        self._pinned_grid: np.ndarray | None = None
        for video_id in sorted(series):
            self.append(video_id, series[video_id])

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """``(rows, width)`` padded value matrix (live + tombstoned rows)."""
        return self._values[: self._count]

    @property
    def weights(self) -> np.ndarray:
        """``(rows, width)`` normalised weight matrix matching :attr:`values`."""
        return self._weights[: self._count]

    @property
    def width(self) -> int:
        """Current padded signature width."""
        return self._width

    @property
    def dead_rows(self) -> int:
        """Tombstoned rows not yet reclaimed by :meth:`compact`."""
        return self._dead_rows

    def __len__(self) -> int:
        return len(self.video_ids)

    def __contains__(self, video_id: str) -> bool:
        return video_id in self._row_slices

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def _grow(self, extra_rows: int, width: int) -> None:
        capacity = self._values.shape[0]
        needed = self._count + extra_rows
        if needed > capacity or width > self._width:
            new_capacity = max(needed, 2 * capacity)
            new_width = max(width, self._width)
            values = np.empty((new_capacity, new_width), dtype=np.float64)
            weights = np.zeros((new_capacity, new_width), dtype=np.float64)
            lengths = np.empty(new_capacity, dtype=np.int64)
            pads = np.empty(new_capacity, dtype=np.float64)
            count = self._count
            values[:count, : self._width] = self._values[:count]
            # Widening extends every existing row with its own pad value,
            # exactly as a cold build at the new width would.
            if new_width > self._width and count:
                values[:count, self._width :] = self._pads[:count, None]
            weights[:count, : self._width] = self._weights[:count]
            lengths[:count] = self._lengths[:count]
            pads[:count] = self._pads[:count]
            self._values, self._weights = values, weights
            self._lengths, self._pads = lengths, pads
            self._width = new_width

    def append(self, video_id: str, series: SignatureSeries) -> None:
        """Add *series* under *video_id* without rebuilding existing rows."""
        if video_id in self._row_slices:
            raise ValueError(f"video {video_id!r} is already in the bank")
        if len(series) == 0:
            raise ValueError(f"cannot append an empty series for {video_id!r}")
        rows = len(series)
        width = max(signature.values.size for signature in series)
        self._grow(rows, width)
        start = self._count
        for offset, signature in enumerate(series):
            v, w = signature.values, signature.weights
            n = v.size
            row = start + offset
            pad = v.max()
            self._values[row, :n] = v
            self._values[row, n:] = pad
            self._weights[row, :n] = w / w.sum()
            self._weights[row, n:] = 0.0
            self._lengths[row] = n
            self._pads[row] = pad
        self._row_slices[video_id] = slice(start, start + rows)
        bisect.insort(self.video_ids, video_id)
        self._series[video_id] = series
        self._count += rows
        self._version += 1
        self._fast_pack = None

    def remove(self, video_id: str) -> None:
        """Tombstone *video_id*'s rows; compacts when width can shrink."""
        block = self._row_slices.pop(video_id, None)
        if block is None:
            raise KeyError(f"video {video_id!r} is not in the bank")
        self.video_ids.remove(video_id)
        del self._series[video_id]
        self._dead_rows += block.stop - block.start
        self._version += 1
        self._fast_pack = None
        live_width = max(
            (
                int(self._lengths[s.start : s.stop].max())
                for s in self._row_slices.values()
            ),
            default=0,
        )
        if (
            max(live_width, self._pinned_width) < self._width
            or self._dead_rows > 0.5 * max(1, self._count)
        ):
            self.compact()

    def compact(self) -> None:
        """Reclaim tombstoned rows and re-pack at the live maximum width.

        The result is bit-identical (rows, padding and order) to a bank
        built cold from the surviving series.  A pinned width
        (:meth:`pin_layout`) acts as a floor on the packed width.
        """
        live_rows = self._count - self._dead_rows
        live_width = max(
            (
                int(self._lengths[s.start : s.stop].max())
                for s in self._row_slices.values()
            ),
            default=0,
        )
        target_width = max(live_width, self._pinned_width)
        copy_width = min(self._width, target_width)
        values = np.empty((live_rows, target_width), dtype=np.float64)
        weights = np.zeros((live_rows, target_width), dtype=np.float64)
        lengths = np.empty(live_rows, dtype=np.int64)
        pads = np.empty(live_rows, dtype=np.float64)
        slices: dict[str, slice] = {}
        start = 0
        for video_id in self.video_ids:
            old = self._row_slices[video_id]
            rows = old.stop - old.start
            # Narrower rows carry their pad value in the trailing columns
            # already, so a plain truncating copy preserves the padding;
            # widening extends each row with its own pad value, exactly
            # as a cold build at the target width would.
            values[start : start + rows, :copy_width] = self._values[old, :copy_width]
            if target_width > self._width:
                values[start : start + rows, self._width :] = self._pads[old, None]
            weights[start : start + rows, :copy_width] = self._weights[old, :copy_width]
            lengths[start : start + rows] = self._lengths[old]
            pads[start : start + rows] = self._pads[old]
            slices[video_id] = slice(start, start + rows)
            start += rows
        self._values, self._weights = values, weights
        self._lengths, self._pads = lengths, pads
        self._row_slices = slices
        self._count = live_rows
        self._dead_rows = 0
        self._width = target_width
        self._version += 1
        self._fast_pack = None

    # ------------------------------------------------------------------
    # Pinned layout (sharded parity)
    # ------------------------------------------------------------------
    def layout_extremes(self) -> tuple[int, float | None, float | None]:
        """``(natural_width, min_value, max_value)`` over the live rows.

        *natural_width* is the maximum real signature size — what a cold
        build would pad to, ignoring any pinned floor; *min_value* /
        *max_value* are the float32 extremes over all live values — what
        :meth:`fast_pack`'s natural key offset and segment grid derive
        from — or ``None`` when the bank is empty.  Sharded deployments
        reduce these across shards to obtain the global layout to pin
        (:meth:`pin_layout`).
        """
        if self._dead_rows:
            self.compact()
        if not self.video_ids:
            return 0, None, None
        natural = max(
            int(self._lengths[s.start : s.stop].max())
            for s in self._row_slices.values()
        )
        # float32 cast is monotonic, so the casts of the float64 extremes
        # equal the extremes of the cast matrix fast_pack() builds (pads
        # duplicate each row's maximum, so they shift neither).
        live = self._values[: self._count]
        return (
            natural,
            float(np.float32(live.min())),
            float(np.float32(live.max())),
        )

    def pin_layout(
        self,
        width: int | None = None,
        offset: float | None = None,
        grid=None,
    ) -> bool:
        """Pin the padded width floor, fast-pack key offset and/or grid.

        Sharded deployments pin every shard's bank to the global layout
        (maximum natural width across shards, offset derived from the
        global minimum value) so the float32 reduction width and merge-key
        encoding — and therefore every score — stay bit-identical to one
        bank holding all series.  The pinned width is a floor: the bank
        still widens past it when a wider series arrives.  The pinned
        offset replaces the natural one outright; callers must keep it
        below every value in the bank (``pack_emd_keys`` raises
        otherwise).  *grid* pins the segment-integral grid (the pruning
        bound is valid on any grid, so this affects no score) — with
        every shard on one grid, a guest query's integrals are computed
        once per scatter and shared.  Returns ``True`` when the layout
        actually changed (the mutation version is bumped so cached packs
        rebuild).
        """
        changed = False
        if width is not None and int(width) != self._pinned_width:
            self._pinned_width = int(width)
            changed = True
        if offset is not None and (
            self._pinned_offset is None or float(offset) != self._pinned_offset
        ):
            self._pinned_offset = float(offset)
            changed = True
        if grid is not None and (
            self._pinned_grid is None
            or not np.array_equal(np.asarray(grid), self._pinned_grid)
        ):
            self._pinned_grid = np.asarray(grid, dtype=np.float64)
            changed = True
        if not changed:
            return False
        if self._dead_rows:
            self.compact()
        live_width = max(
            (
                int(self._lengths[s.start : s.stop].max())
                for s in self._row_slices.values()
            ),
            default=0,
        )
        target = max(live_width, self._pinned_width)
        if target > self._width:
            self._grow(0, target)
        elif target < self._width:
            self.compact()
        self._version += 1
        self._fast_pack = None
        return True

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> "SignatureBank":
        """A copy-on-write snapshot sharing the padded matrices.

        The containers (video ids, row slices, series map) are copied; the
        value/weight/length/pad arrays are **shared**.  Sharing is safe
        under the bank's append-only array discipline: live mutations only
        ever (a) write rows at or beyond the current ``_count`` — which a
        snapshot taken at that count never reads — or (b) swap in freshly
        allocated arrays (``_grow`` widening, :meth:`compact`), which the
        snapshot does not observe.  This is what gives the serving
        gateway's epoch publication O(videos) cost instead of O(rows ×
        width).  The snapshot itself must be treated as immutable except
        for its own :meth:`compact` (which allocates fresh arrays and so
        cannot disturb the live bank)."""
        clone = SignatureBank.__new__(SignatureBank)
        clone.video_ids = list(self.video_ids)
        clone._series = dict(self._series)
        clone._row_slices = dict(self._row_slices)
        clone._count = self._count
        clone._dead_rows = self._dead_rows
        clone._width = self._width
        clone._values = self._values
        clone._weights = self._weights
        clone._lengths = self._lengths
        clone._pads = self._pads
        # The pack is immutable and version-keyed, so a snapshot can share
        # it outright — epoch publication inherits an already-warm pack.
        clone._version = self._version
        clone._fast_pack = self._fast_pack
        clone._pinned_width = self._pinned_width
        clone._pinned_offset = self._pinned_offset
        clone._pinned_grid = self._pinned_grid
        return clone

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def sim_matrix(self, query: SignatureSeries) -> np.ndarray:
        """``(len(query), live_signatures)`` SimC matrix vs every live row."""
        if self._dead_rows:
            self.compact()
        matrix = np.empty((len(query), self._count), dtype=np.float64)
        for i, signature in enumerate(query):
            matrix[i] = emd_1d_one_vs_many(
                signature.values, signature.weights, self.values, self.weights
            )
        np.reciprocal(1.0 + matrix, out=matrix)
        return matrix

    def fast_pack(self) -> SignatureFastPack:
        """The bank's float32 scoring pack, rebuilt only after mutations.

        Compacts first (the pack is live-rows-only), then reuses the
        cached pack while the bank's mutation version is unchanged —
        "pack once per epoch" in steady-state serving.
        """
        if self._dead_rows:
            self.compact()
        pack = self._fast_pack
        if pack is not None and pack.version == self._version:
            return pack
        counts = np.array(
            [
                self._row_slices[video_id].stop - self._row_slices[video_id].start
                for video_id in self.video_ids
            ],
            dtype=np.int64,
        )
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        rows = np.concatenate(
            [
                np.arange(self._row_slices[v].start, self._row_slices[v].stop)
                for v in self.video_ids
            ]
        )
        values = self.values[rows]
        weights = self.weights[rows]
        # Row-sort ascending once at pack time; pads equal each row's
        # maximum so they stay trailing (with zero weight) after the sort.
        order = np.argsort(values, axis=1, kind="stable")
        values = np.take_along_axis(values, order, axis=1).astype(np.float32)
        weights = np.take_along_axis(weights, order, axis=1).astype(np.float32)
        grid, seg_integrals = _segment_integrals(
            values, weights, grid=self._pinned_grid
        )
        if self._pinned_offset is not None:
            offset = self._pinned_offset
        else:
            offset = float(values.min()) - 1.0 if values.size else -1.0
        pack = SignatureFastPack(
            version=self._version,
            values=values,
            weights=weights,
            starts=starts,
            counts=counts,
            ids=np.array(self.video_ids),
            index_of={v: i for i, v in enumerate(self.video_ids)},
            keys=pack_emd_keys(values, weights, negate=True, offset=offset),
            offset=offset,
            row_sizes=np.count_nonzero(weights, axis=1).astype(np.int64),
            grid=grid,
            seg_integrals=seg_integrals,
        )
        self._fast_pack = pack
        return pack

    def kappa_j_scores_at(
        self,
        query_keys: np.ndarray,
        positions: np.ndarray,
        match_threshold: float,
        pack: SignatureFastPack | None = None,
    ) -> np.ndarray:
        """Float32 κJ of a key-packed query against pack *positions*.

        The fast-path counterpart of :meth:`kappa_j_scores`: the query
        arrives as ``(n1, nq)`` int64 merge keys — from
        :meth:`SignatureFastPack.query_keys_at` for indexed queries or
        :meth:`SignatureFastPack.pack_query` otherwise —
        candidates are addressed by position into the :meth:`fast_pack`
        (as the pruned scan's block loop does), the SimC matrix comes
        from the merge-sort EMD kernel in float32 scratch, and the
        per-candidate greedy matching is vectorized over the whole block.  Scores
        return as float64 (the fusion arithmetic stays float64 either
        way); agreement with the reference path is within float32
        rounding of the EMD sums.
        """
        if pack is None:
            pack = self.fast_pack()
        workspace = get_workspace()
        counts = pack.counts[positions]
        starts = pack.starts[positions]
        many = positions.size
        n1 = query_keys.shape[0]
        total_rows = int(counts.sum())
        n2max = int(counts.max())
        # Gathered row index: for each selected video its contiguous pack
        # rows, concatenated (repeat/cumsum trick, no Python loop).
        offsets = np.cumsum(counts) - counts
        row_index = np.repeat(starts - offsets, counts) + np.arange(total_rows)
        # Candidate rows keep the full pack width rather than trimming to
        # the block's widest real row: the merged width then depends only
        # on (query, pack), never on how candidates were batched, so the
        # float32 EMD of a pair is bit-identical across block sizes (the
        # gap sgemm's summation order is fixed by the reduction width).
        # Trailing pads duplicate each row's max value at zero weight, so
        # they contribute exact zeros.
        cand_keys = pack.keys[row_index]

        # SimC of every query signature vs every gathered row — the whole
        # cross product in one batched kernel call — plus one trailing
        # sentinel column that padded block cells map onto.
        sim = workspace.get("sim", (n1, total_rows + 1), np.float32)
        sim[:, :total_rows] = emd_1d_sorted_keys_many_vs_many(
            query_keys, cand_keys, workspace
        )
        body = sim[:, :total_rows]
        np.add(body, np.float32(1.0), out=body)
        np.reciprocal(body, out=body)
        sim[:, total_rows] = -1.0

        # Per-candidate padded SimC blocks (B, n1, n2max); pad cells read
        # the sentinel column (-1, below any real SimC).  Both signature
        # axes are reversed during the gather — the layout
        # _greedy_match_many wants for its contiguous tie-break argmax.
        cols = offsets[:, None] + np.arange(n2max)[None, :]
        invalid = np.arange(n2max)[None, :] >= counts[:, None]
        cols[invalid] = total_rows
        blocks = workspace.get("blocks", (many, n1, n2max), np.float32)
        np.copyto(blocks, sim[::-1, cols[:, ::-1]].transpose(1, 0, 2))

        totals, matched = _greedy_match_many(blocks, match_threshold)
        union = n1 + counts - matched
        scores = np.zeros(many, dtype=np.float64)
        np.divide(totals, union, out=scores, where=union > 0)
        return scores

    def kappa_j_scores(
        self,
        query: SignatureSeries,
        video_ids: list[str],
        match_threshold: float,
        dtype: str = "float64",
    ) -> np.ndarray:
        """κJ of *query* against each listed video, batch-computed.

        One vectorized EMD call per query signature covers every listed
        candidate at once; the greedy matching then consumes per-candidate
        column slices of the shared SimC matrix.  When *video_ids* is a
        strict subset (KNN refinement blocks, budget chunks) only the
        relevant signature rows are gathered and scored.

        ``dtype="float32"`` routes through the packed fast path
        (:meth:`fast_pack` + :meth:`kappa_j_scores_at`); ``"float64"`` is
        the reference path that parity tests pin against.
        """
        if dtype == "float32":
            pack = self.fast_pack()
            positions = np.array(
                [pack.index_of[video_id] for video_id in video_ids],
                dtype=np.int64,
            )
            return self.kappa_j_scores_at(
                pack.pack_query(query)[0], positions, match_threshold, pack=pack
            )
        if dtype != "float64":
            raise ValueError(f"dtype must be 'float32' or 'float64', got {dtype!r}")
        slices = [self._row_slices[video_id] for video_id in video_ids]
        total_rows = self.values.shape[0]
        if sum(s.stop - s.start for s in slices) == total_rows:
            values, weights = self.values, self.weights
            local = slices
        else:
            rows = np.concatenate(
                [np.arange(s.start, s.stop) for s in slices]
            )
            values = self.values[rows]
            weights = self.weights[rows]
            local = []
            start = 0
            for s in slices:
                local.append(slice(start, start + (s.stop - s.start)))
                start = local[-1].stop

        sim = np.empty((len(query), values.shape[0]), dtype=np.float64)
        for i, signature in enumerate(query):
            sim[i] = emd_1d_one_vs_many(
                signature.values, signature.weights, values, weights
            )
        np.reciprocal(1.0 + sim, out=sim)

        n1 = len(query)
        scores = np.empty(len(video_ids), dtype=np.float64)
        for position, block_slice in enumerate(local):
            block = sim[:, block_slice]
            matched_total, matched_count = _greedy_match(block, match_threshold)
            union = n1 + block.shape[1] - matched_count
            scores[position] = matched_total / union if union > 0 else 0.0
        return scores
