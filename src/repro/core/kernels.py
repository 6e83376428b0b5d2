"""Pluggable Lloyd-iteration backends in two tiers: exact and ``exact=False``.

Every stage of the pipeline — the serial baseline, the partial operator,
and the merge operator — funnels through :func:`repro.core.kmeans.lloyd`,
which delegates the per-iteration *assignment step* to one of the kernels
defined here.

**Tier 1 (exact, bit-identical to dense):**

* ``dense`` — the reference: one full ``(n, k)`` ``cdist`` per iteration,
  exactly the seed implementation's behaviour.
* ``hamerly`` — a Hamerly-style bounds kernel: one upper estimate plus a
  single lower bound on the second-closest centroid per point, deflated
  by the *maximum* centroid drift.  Best at small/medium ``k``.
* ``elkan`` — a Yinyang-style group-bounds kernel: centroids are split
  into ``G ≈ k/8`` groups (ordered by first coordinate so nearby
  centroids share a group) and each point keeps one lower bound *per
  group*, deflated by that group's own maximum drift.  At high ``k`` a
  few fast-moving centroids no longer destroy every point's single bound
  (Hamerly's tax), so far fewer points survive the bound check.  An
  Elkan-style inter-centroid filter (``s(a) = ½·min_j d(c_a, c_j)``)
  prunes additionally.  Survivors get one exact full candidate row;
  pruned points with a moved assigned centroid get their one exact
  assigned distance from cache-friendly contiguous per-cluster slices.

**Tier 2 (``exact=False``, opt-in):**

* ``blas`` — a float32 GEMM kernel.  Points are copied once to a
  C-contiguous float32 matrix augmented with a constant-1 column; per
  pass the centroids become a ``(d+1, k)`` float32 matrix holding
  ``-2·c`` and ``‖c‖²``, so one ``sgemm`` per cache-sized row block
  yields argmin-equivalent scores ``‖c‖² − 2·x·c``.  The same group
  bounds as ``elkan`` restrict the GEMM to bound-check survivors; rows
  whose float32 winner margin is ambiguous are refined with exact
  float64 ``cdist`` rows; pruned points keep a stale squared distance
  whose drift-inflated upper estimate stays valid (triangle
  inequality) and loosens until the row re-enters the GEMM.  SSE is
  computed algebraically from per-cluster sums (never from the stale
  per-point values), and the sums are maintained incrementally (only
  switched points update them), legal here because bit-identity is
  waived.  See :func:`blas_mse_tolerance` for the documented error
  bound.

**Determinism contract (tier 1).**  All exact kernels produce
bit-identical ``assignments``, per-point squared distances, and therefore
``centroids``, ``sse`` and ``iterations`` to the dense reference,
including ``np.argmin``'s first-index tie-breaking.  Two mechanisms
enforce this:

1. every distance value that can influence an output is produced by
   ``scipy.spatial.distance.cdist(..., "sqeuclidean")`` on float64
   C-contiguous inputs — ``cdist`` computes each pair independently, so a
   subset call (one centroid column, a contiguous group of rows) is
   bit-equal to the corresponding entries of the full matrix — and
2. pruning decisions are strictly *conservative*: bounds carry guard
   bands (``_GUARD``, ``_GUARD32``) absorbing floating-point
   drift-update and float32-storage error, so a pruned point is
   *provably* strictly closest to its kept centroid — no tie possible.

The ``blas`` kernel deliberately waives this contract for raw speed and
therefore requires an explicit opt-in: ``exact=False`` on
``resolve_kernel``/``lloyd``/``Query.with_kernel``, ``--no-exact`` on the
CLI, or ``REPRO_KMEANS_EXACT=0`` in the environment.  Selecting ``blas``
without the waiver is a ``ValueError``, never a silent accuracy change.

Kernel selection: pass ``kernel=`` (a name, a :class:`LloydKernel`
instance, or a zero-argument factory such as
:meth:`repro.core.spec.ClusterSpec.new_kernel`) or set
``REPRO_KMEANS_KERNEL``; the explicit argument wins.  Unknown names
raise a ``ValueError`` naming the bad value, the valid kernels, and —
when the name came from the environment — the variable itself.

Centroid aggregation for exact kernels uses one ``np.bincount`` per
dimension (:func:`aggregate_weighted_sums`) — the same sequential
accumulation order as the seed's ``np.add.at``, so bit-identical sums.
The ``elkan`` kernel re-sums only clusters whose *membership changed*
(a subset ``bincount`` over their members preserves per-bin accumulation
order, hence bits); unchanged clusters reuse cached sums verbatim.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist

__all__ = [
    "KERNEL_ENV_VAR",
    "EXACT_ENV_VAR",
    "KernelChoice",
    "KernelCounters",
    "LloydKernel",
    "DenseKernel",
    "HamerlyKernel",
    "ElkanKernel",
    "BlasKernel",
    "available_kernels",
    "resolve_kernel",
    "aggregate_weighted_sums",
    "blas_assign_to_nearest",
    "blas_mse_tolerance",
]

#: Environment variable selecting the default kernel.
KERNEL_ENV_VAR = "REPRO_KMEANS_KERNEL"

#: Environment variable waiving the bit-identity requirement
#: (``0``/``false``/``no``/``off`` allows ``exact=False`` kernels).
EXACT_ENV_VAR = "REPRO_KMEANS_EXACT"

#: Relative guard band on float64 bounds.  Accumulated floating-point
#: error on a drift-updated bound is a few ulps (~1e-16 relative) per
#: iteration; deflating the lower bound by 1e-9 per update absorbs that
#: with ~6 orders of magnitude to spare while costing essentially no
#: pruning power (a point is kept only when its two nearest centroids are
#: within 1e-9 relative distance — at which point recomputing is correct).
_GUARD = 1e-9

#: Relative guard band on *float32-stored* group lower bounds (elkan).
#: float32 rounding is ~6e-8 relative per store/subtract; 4e-6 dominates
#: every rounding in the store → drift-subtract → compare chain while
#: still pruning everything not within 4e-6 relative of a tie.
_GUARD32 = 4e-6

#: blas tier: pruning guard (relative).  Mis-pruning only costs accuracy
#: here (never correctness), so the guard merely keeps the error within
#: the documented tolerance.
_BLAS_GUARD = 1e-5

#: blas tier: float32 winner margins below this relative threshold are
#: re-resolved with exact float64 rows (float32 score error is a small
#: multiple of ``eps32 · (‖x‖² + ‖c‖²)``; 1e-5 exceeds it by ~2 orders).
_BLAS_MARGIN = 1e-5


@dataclass
class KernelCounters:
    """Instrumentation for one (or an aggregate of) Lloyd kernel run(s).

    Attributes:
        kernel: kernel name the counters belong to.
        distance_evals_computed: point-centroid distance evaluations
            actually performed.
        distance_evals_skipped: evaluations a dense kernel would have
            performed that this kernel proved redundant.
        bound_check_hits: points whose bound test pruned the full
            candidate scan in some iteration.
        assign_calls: kernel assignment passes executed.
        assign_seconds: wall time spent inside assignment passes.
        gemm_calls: BLAS GEMM invocations (blas kernel row blocks).
        refine_rows: rows whose float32 margin was ambiguous and were
            re-resolved with exact float64 distances (blas kernel).
        bound_groups: centroid groups whose lower bounds were maintained,
            summed over assignment passes (elkan/blas; 0 for ungrouped
            kernels).
    """

    kernel: str = "dense"
    distance_evals_computed: int = 0
    distance_evals_skipped: int = 0
    bound_check_hits: int = 0
    assign_calls: int = 0
    assign_seconds: float = 0.0
    gemm_calls: int = 0
    refine_rows: int = 0
    bound_groups: int = 0

    def merge(self, other: "KernelCounters | None") -> None:
        """Accumulate ``other`` into this aggregate (in place)."""
        if other is None:
            return
        self.kernel = other.kernel or self.kernel
        self.distance_evals_computed += other.distance_evals_computed
        self.distance_evals_skipped += other.distance_evals_skipped
        self.bound_check_hits += other.bound_check_hits
        self.assign_calls += other.assign_calls
        self.assign_seconds += other.assign_seconds
        self.gemm_calls += other.gemm_calls
        self.refine_rows += other.refine_rows
        self.bound_groups += other.bound_groups

    def as_dict(self) -> dict:
        """JSON-safe representation (used by stream messages and traces)."""
        return {
            "kernel": self.kernel,
            "distance_evals_computed": int(self.distance_evals_computed),
            "distance_evals_skipped": int(self.distance_evals_skipped),
            "bound_check_hits": int(self.bound_check_hits),
            "assign_calls": int(self.assign_calls),
            "assign_seconds": float(self.assign_seconds),
            "gemm_calls": int(self.gemm_calls),
            "refine_rows": int(self.refine_rows),
            "bound_groups": int(self.bound_groups),
        }

    @staticmethod
    def from_dict(payload: dict | None) -> "KernelCounters | None":
        """Rebuild counters from :meth:`as_dict` output (``None`` passes)."""
        if payload is None:
            return None
        known = {f.name for f in fields(KernelCounters)}
        return KernelCounters(
            **{key: value for key, value in payload.items() if key in known}
        )


def merge_counter_dicts(target: dict, source: dict | None) -> dict:
    """Accumulate a counters dict (``as_dict`` shape) into ``target``.

    Numeric fields add; the ``kernel`` name is carried over (last writer
    wins — mixed-kernel aggregates keep the most recent name).
    """
    if source:
        for key, value in source.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                target[key] = target.get(key, 0) + value
            else:
                target[key] = value
    return target


def _pair_sq_distances(points: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """Exact squared distances of ``points`` to one centroid, cdist-bitwise.

    The centroid goes on the *left*: ``cdist`` vectorises its inner loop
    over the second operand's rows, so the ``(1, m)`` orientation runs
    ~9x faster than ``(m, 1)`` while staying bit-equal (``cdist``
    evaluates each pair independently and symmetrically).
    """
    return cdist(centroid.reshape(1, -1), points, metric="sqeuclidean")[0]


def _grouped_assigned_sq(
    points: np.ndarray,
    centroids: np.ndarray,
    assignments: np.ndarray,
    rows: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Exact squared distance of each point to its assigned centroid.

    Values are bitwise equal to the corresponding entries of the full
    dense ``cdist`` matrix (``cdist`` evaluates pairs independently).
    Points are grouped by centroid so each group is one vectorised call.

    When ``rows`` is given only those point indices are evaluated (and
    only those slots of ``out`` written); ``out`` may be supplied to
    avoid an allocation.
    """
    if out is None:
        out = np.empty(points.shape[0], dtype=np.float64)
    k = centroids.shape[0]
    sub_assign = assignments if rows is None else assignments[rows]
    # Labels are small ints: sorting a narrowed copy runs a one/two-byte
    # radix pass instead of a 64-bit merge sort (~6x faster here) with an
    # identical stable order.
    if k <= 256:
        order = np.argsort(sub_assign.astype(np.uint8), kind="stable")
    elif k <= 65536:
        order = np.argsort(sub_assign.astype(np.uint16), kind="stable")
    else:
        order = np.argsort(sub_assign, kind="stable")
    sorted_rows = order if rows is None else rows[order]
    sorted_assign = sub_assign[order]
    bounds = np.searchsorted(sorted_assign, np.arange(k + 1), side="left")
    # One gather up front so every group is a contiguous slice, one
    # scatter at the end — instead of k small fancy-indexing round trips.
    gathered = points[sorted_rows]
    grouped = np.empty(sorted_rows.shape[0], dtype=np.float64)
    for j in range(k):
        lo, hi = bounds[j], bounds[j + 1]
        if lo == hi:
            continue
        grouped[lo:hi] = _pair_sq_distances(gathered[lo:hi], centroids[j])
    out[sorted_rows] = grouped
    return out


def _label_argsort(assignments: np.ndarray, k: int) -> np.ndarray:
    """Stable argsort of cluster labels via a narrowed radix-friendly copy."""
    if k <= 256:
        return np.argsort(assignments.astype(np.uint8), kind="stable")
    if k <= 65536:
        return np.argsort(assignments.astype(np.uint16), kind="stable")
    return np.argsort(assignments, kind="stable")


def _centroid_groups(k: int, target_size: int = 8) -> np.ndarray:
    """Boundaries of ``G ≈ k/target_size`` contiguous centroid groups.

    Returns ``starts`` with ``G + 1`` entries delimiting equal-width index
    ranges ``[starts[g], starts[g+1])``.  Groups are contiguous in the
    *original* centroid order: measurements show spatial grouping (e.g.
    sorting by first coordinate) prunes no better here, and index-range
    groups let every per-group reduction run as a cheap ``reshape`` +
    ``min`` instead of a ``take`` + ``reduceat``.  Grouping only affects
    pruning power, never outputs.
    """
    n_groups = max(1, (k + target_size - 1) // target_size)
    return (np.arange(n_groups + 1, dtype=np.intp) * k) // n_groups


def _group_min_t(mat_t: np.ndarray, gstarts: np.ndarray) -> np.ndarray:
    """Per-column minimum of a *transposed* ``(k, m)`` score matrix.

    Returns ``(G, m)``.  Reducing over contiguous row slices (axis 0)
    vectorises across the ``m`` points; reducing over a short last axis
    (the ``(m, k)`` orientation) is ~10x slower in numpy, which is why
    every hot path here carries scores transposed.
    """
    n_groups = gstarts.size - 1
    out = np.empty((n_groups, mat_t.shape[1]), dtype=mat_t.dtype)
    for g in range(n_groups):
        mat_t[gstarts[g]:gstarts[g + 1]].min(axis=0, out=out[g])
    return out


class LloydKernel:
    """One Lloyd assignment backend; holds per-run state between iterations.

    Lifecycle (driven by :func:`repro.core.kmeans.lloyd`)::

        kernel.start(points, weights)
        repeat:
            assignments, sq_dists = kernel.assign(centroids)
            # (empty-cluster repair mutates centroids -> kernel.invalidate())
            sums = kernel.aggregate(weighted_points, assignments, k)
            kernel.notify_update(old_centroids, new_centroids)

    ``exact`` declares the tier: exact kernels are bit-identical to the
    dense reference; ``exact=False`` kernels trade bit-identity for speed
    and require an explicit waiver at resolution time.

    Kernel instances are single-run and not thread-safe; ``resolve_kernel``
    hands out a fresh instance per ``lloyd`` call.
    """

    name = "abstract"
    #: Whether this kernel honours the bit-identity contract.
    exact = True

    def __init__(self) -> None:
        self.counters = KernelCounters(kernel=self.name)
        self._points: np.ndarray | None = None

    def start(self, points: np.ndarray, weights: np.ndarray) -> None:
        """Begin a run over ``points`` (already float64 C-contiguous)."""
        self._points = points
        self.counters = KernelCounters(kernel=self.name)

    def assign(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(assignments, sq_dists)`` for the current centroids.

        Exact kernels must be bit-identical to ``cdist`` + first-index
        ``argmin``.
        """
        raise NotImplementedError

    def aggregate(
        self, weighted_points: np.ndarray, assignments: np.ndarray, k: int
    ) -> np.ndarray:
        """Per-cluster sums of weighted points for the update step.

        The base implementation is the shared bit-exact ``bincount``
        aggregation; kernels may override it with something faster as
        long as they keep their tier's accuracy contract.  The returned
        array may be kernel-owned — callers must not mutate it.
        """
        return aggregate_weighted_sums(weighted_points, assignments, k)

    def compute_sse(
        self, weights: np.ndarray, sq_dists: np.ndarray
    ) -> float:
        """Weighted SSE of the last assignment pass.

        The base implementation is the reference dot product over the
        per-point squared distances; the ``blas`` tier overrides it with
        an algebraic per-cluster form so pruned rows never need their
        stored distance refreshed.  ``lloyd`` calls this after
        :meth:`aggregate` each iteration and once after the final pass.
        """
        return float(np.dot(weights, sq_dists))

    def cluster_mass(
        self, weights: np.ndarray, assignments: np.ndarray, k: int
    ) -> np.ndarray:
        """Per-cluster total weight for the current assignment.

        The base implementation is the reference weighted ``bincount``;
        bounds kernels override it to update only the clusters whose
        membership changed (bit-identical — a subset ``bincount``
        accumulates each bin in the same increasing-row order as the
        full one).  The returned array may be kernel-owned — callers
        must not mutate it.
        """
        return np.bincount(assignments, weights=weights, minlength=k)

    def notify_update(
        self, old_centroids: np.ndarray, new_centroids: np.ndarray
    ) -> None:
        """Observe the centroid update step (drift bookkeeping)."""

    def invalidate(self) -> None:
        """Drop cached bounds (an empty-cluster repair teleported a centroid)."""


#: What ``kernel=`` accepts everywhere: a name, an instance, a
#: zero-argument factory returning a fresh instance, or ``None``.
KernelChoice = str | LloydKernel | Callable[[], LloydKernel] | None


class DenseKernel(LloydKernel):
    """The reference kernel: full ``(n, k)`` ``cdist`` every iteration."""

    name = "dense"

    def assign(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        assert self._points is not None, "kernel used before start()"
        started = time.perf_counter()
        pts = self._points
        d2 = cdist(pts, centroids, metric="sqeuclidean")
        assignments = np.argmin(d2, axis=1)
        sq_dists = d2[np.arange(pts.shape[0]), assignments]
        self.counters.distance_evals_computed += pts.shape[0] * centroids.shape[0]
        self.counters.assign_calls += 1
        self.counters.assign_seconds += time.perf_counter() - started
        return assignments, sq_dists


class HamerlyKernel(LloydKernel):
    """Bounds-based kernel skipping provably redundant candidate scans.

    Per point the kernel keeps the assignment, the exact squared distance
    to the assigned centroid as of the *last* pass, and a deflated lower
    bound on the distance to the second-closest centroid.  After a
    centroid update the lower bound shrinks by the maximum centroid drift
    and an *upper estimate* inflates by the assigned centroid's own drift
    (``u_est = √sq_old + drift[a]`` — an overestimate of the true new
    assigned distance by the triangle inequality).  A pass then:

    1. prunes points with ``u_est·(1+guard) < l`` — for them the
       assignment is *provably* strictly unchanged, so at most the one
       exact assigned distance is recomputed (grouped by centroid; the
       MSE convergence test needs it exactly).  If the assigned centroid
       is additionally *bitwise* unchanged, last pass's value is already
       what ``cdist`` would produce and is reused with zero evaluations;
    2. scans the full candidate row only for the survivors — that row
       yields their exact assigned distance for free and refreshes the
       lower bound from the second-smallest distance.

    Against the dense kernel's ``n·k`` evaluations per pass this performs
    at most ``(n − m) + m·k ≤ n·k`` where ``m`` is the survivor count —
    near convergence ``m → 0``, centroids freeze bitwise, and the pass
    cost approaches zero.  Because a pass never exceeds dense cost, the
    exact accounting identity ``computed + skipped == dense computed``
    holds for a whole run.
    """

    name = "hamerly"

    def __init__(self) -> None:
        super().__init__()
        self._assignments: np.ndarray | None = None
        self._lower: np.ndarray | None = None
        self._sq_dists: np.ndarray | None = None
        self._drift: np.ndarray | None = None
        self._moved: np.ndarray | None = None
        self._valid = False

    def start(self, points: np.ndarray, weights: np.ndarray) -> None:
        super().start(points, weights)
        self._assignments = None
        self._lower = None
        self._sq_dists = None
        self._drift = None
        self._moved = None
        self._valid = False

    def invalidate(self) -> None:
        self._valid = False

    def _full_refresh(
        self, centroids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        pts = self._points
        assert pts is not None
        n, k = pts.shape[0], centroids.shape[0]
        d2 = cdist(pts, centroids, metric="sqeuclidean")
        assignments = np.argmin(d2, axis=1)
        sq_dists = d2[np.arange(n), assignments]
        if k >= 2:
            second = np.partition(d2, 1, axis=1)[:, 1]
            lower = np.sqrt(second) * (1.0 - _GUARD)
        else:
            lower = np.full(n, np.inf)
        self._assignments = assignments
        self._lower = lower
        self._sq_dists = sq_dists
        self._drift = None
        self._moved = None
        self._valid = True
        self.counters.distance_evals_computed += n * k
        return assignments, sq_dists

    def assign(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        assert self._points is not None, "kernel used before start()"
        started = time.perf_counter()
        pts = self._points
        n, k = pts.shape[0], centroids.shape[0]
        try:
            if not self._valid or self._assignments is None:
                return self._full_refresh(centroids)

            assignments = self._assignments
            lower = self._lower
            prev_sq = self._sq_dists
            assert lower is not None and prev_sq is not None

            # Upper estimate: last pass's exact assigned distance plus the
            # assigned centroid's accumulated drift (triangle inequality
            # makes this a strict overestimate of the new distance).
            upper_est = np.sqrt(prev_sq)
            if self._drift is not None:
                upper_est += self._drift[assignments]
            survivor_mask = upper_est * (1.0 + _GUARD) >= lower
            survivors = np.flatnonzero(survivor_mask)
            m = survivors.size
            pruned = n - m

            sq_dists = np.empty(n, dtype=np.float64)
            recompute = 0
            if pruned:
                pruned_mask = ~survivor_mask
                if self._moved is not None:
                    # Pruned point whose assigned centroid is *bitwise*
                    # unchanged: cdist would reproduce last pass's value
                    # bit for bit, so reuse it with zero evaluations.
                    stale = pruned_mask & self._moved[assignments]
                    np.copyto(
                        sq_dists, prev_sq, where=pruned_mask & ~stale
                    )
                else:
                    stale = pruned_mask
                stale_rows = np.flatnonzero(stale)
                recompute = stale_rows.size
                if recompute:
                    # Provably unchanged assignment — recompute only the
                    # one exact assigned distance (the convergence test
                    # needs it verbatim), grouped by centroid.
                    _grouped_assigned_sq(
                        pts,
                        centroids,
                        assignments,
                        rows=stale_rows,
                        out=sq_dists,
                    )

            computed = recompute + m * k
            self.counters.bound_check_hits += pruned
            self.counters.distance_evals_computed += computed
            self.counters.distance_evals_skipped += n * k - computed
            if m:
                rows = cdist(pts[survivors], centroids, metric="sqeuclidean")
                row_assign = np.argmin(rows, axis=1)
                assignments[survivors] = row_assign
                sq_dists[survivors] = rows[np.arange(m), row_assign]
                if k >= 2:
                    second = np.partition(rows, 1, axis=1)[:, 1]
                    lower[survivors] = np.sqrt(second) * (1.0 - _GUARD)
                else:
                    lower[survivors] = np.inf
            self._sq_dists = sq_dists
            self._drift = None
            self._moved = None
            return assignments, sq_dists
        finally:
            self.counters.assign_calls += 1
            self.counters.assign_seconds += time.perf_counter() - started

    def notify_update(
        self, old_centroids: np.ndarray, new_centroids: np.ndarray
    ) -> None:
        if not self._valid or self._lower is None:
            return
        drift = np.sqrt(((new_centroids - old_centroids) ** 2).sum(axis=1))
        max_drift = float(drift.max()) if drift.size else 0.0
        # Every centroid moved at most max_drift, so every point's
        # second-closest distance shrank by at most max_drift; the extra
        # multiplicative deflation absorbs this update's rounding error.
        np.maximum((self._lower - max_drift) * (1.0 - _GUARD), 0.0,
                   out=self._lower)
        # Accumulated per-centroid drift since the last assign pass
        # (defensive accumulation; lloyd issues exactly one update per
        # pass, and assign resets it).  "moved" is tracked bitwise rather
        # than as drift > 0 because a subnormal displacement can square
        # to exactly zero.
        self._drift = drift if self._drift is None else self._drift + drift
        moved = np.any(new_centroids != old_centroids, axis=1)
        self._moved = moved if self._moved is None else self._moved | moved


class ElkanKernel(LloydKernel):
    """Group-bounds (Yinyang-style) kernel for the high-``k`` regime.

    State per point: the assignment, the exact squared assigned distance
    as of the last pass, and one float32 lower bound per *centroid group*
    (``G ≈ k/8`` groups of first-coordinate-adjacent centroids).  Bounds
    are stored un-deflated together with the group's cumulative drift at
    refresh time; at test time the bound is reconstructed as
    ``stored − cumulative_drift_now`` — so a centroid update costs
    ``O(k)``, not ``O(n·G)``.  Guard bands (``_GUARD32``) make every
    float32 rounding strictly conservative.

    A pass first makes every point's assigned distance exact again:
    points whose assigned centroid is bitwise unchanged reuse last
    pass's value verbatim, the rest get one exact evaluation from a
    cached copy of the points sorted by cluster — contiguous per-cluster
    slices, only clusters that moved, no per-pass argsort.  The bound
    test then compares the *exact* assigned distance (no drift slack on
    the upper side — Yinyang's local filter) against the tightest group
    bound and the Elkan inter-centroid radius
    ``s(a) = ½·min_{j≠a} d(c_a, c_j)``; only the few genuine survivors
    get an exact full ``cdist`` row (same argmin/tie-break as dense),
    which also refreshes their group bounds.

    Every output-bearing value comes from ``cdist`` on float64 inputs, so
    outputs are bit-identical to the dense reference; the accounting
    identity ``computed + skipped == dense computed`` holds exactly.
    """

    name = "elkan"

    #: Rebuild the sorted-by-cluster point cache when more than this
    #: fraction of points changed assignment since it was built.
    _REBUILD_FRACTION = 8  # denominator: rebuild when dirty > n / 8

    def __init__(self) -> None:
        super().__init__()
        self._assignments: np.ndarray | None = None
        self._sq_dists: np.ndarray | None = None
        self._lower: np.ndarray | None = None  # (G, n) float32, +CD offset
        self._cum_drift: np.ndarray | None = None  # (G,) float64
        self._gstarts: np.ndarray | None = None
        self._moved: np.ndarray | None = None
        self._valid = False
        # Sorted-by-cluster cache for the exact stale-distance path.
        self._sorted_rows: np.ndarray | None = None
        self._sorted_pts: np.ndarray | None = None
        self._sorted_bounds: np.ndarray | None = None
        self._sorted_pos: np.ndarray | None = None  # inverse of sorted_rows
        self._sorted_dirty: np.ndarray | None = None  # dirty, sorted order
        self._dirty: np.ndarray | None = None
        self._dirty_chunks: list[np.ndarray] = []
        self._dirty_count = 0
        # Exact incremental aggregation cache.
        self._agg_sums: np.ndarray | None = None
        self._agg_k = -1
        self._agg_rebuild = True
        self._agg_changed: np.ndarray | None = None  # (k,) bool
        # Exact incremental cluster-mass cache (+ shared member gather).
        self._mass: np.ndarray | None = None
        self._mass_k = -1
        self._member_rows: np.ndarray | None = None
        self._member_sub_assign: np.ndarray | None = None

    def start(self, points: np.ndarray, weights: np.ndarray) -> None:
        super().start(points, weights)
        self._assignments = None
        self._sq_dists = None
        self._lower = None
        self._cum_drift = None
        self._gstarts = None
        self._moved = None
        self._valid = False
        self._sorted_rows = None
        self._sorted_pts = None
        self._sorted_bounds = None
        self._sorted_pos = None
        self._sorted_dirty = None
        self._dirty = None
        self._dirty_chunks = []
        self._dirty_count = 0
        self._agg_sums = None
        self._agg_k = -1
        self._agg_rebuild = True
        self._agg_changed = None
        self._mass = None
        self._mass_k = -1
        self._member_rows = None
        self._member_sub_assign = None

    def invalidate(self) -> None:
        self._valid = False
        self._agg_rebuild = True
        self._member_rows = None
        self._member_sub_assign = None

    def _rebuild_sorted_cache(self, k: int) -> None:
        pts = self._points
        assignments = self._assignments
        assert pts is not None and assignments is not None
        n = pts.shape[0]
        order = _label_argsort(assignments, k)
        self._sorted_rows = order
        self._sorted_pts = pts[order]
        self._sorted_bounds = np.searchsorted(
            assignments[order], np.arange(k + 1), side="left"
        )
        pos = np.empty(n, dtype=np.intp)
        pos[order] = np.arange(n, dtype=np.intp)
        self._sorted_pos = pos
        self._sorted_dirty = np.zeros(n, dtype=bool)
        self._dirty = np.zeros(n, dtype=bool)
        self._dirty_chunks = []
        self._dirty_count = 0

    def _full_refresh(
        self, centroids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        pts = self._points
        assert pts is not None
        n, k = pts.shape[0], centroids.shape[0]
        # Transposed (k, n) distance matrix: ``cdist`` evaluates each pair
        # independently and symmetrically, so entries are bit-equal to the
        # (n, k) orientation, and axis-0 reductions vectorise across
        # points.  min + first-True match keeps the first-centroid
        # tie-break (argmax on bool returns the first row equal to the
        # columnwise minimum) and beats ``argmin(axis=0)`` ~2x.
        d2t = cdist(centroids, pts, metric="sqeuclidean")
        sq_dists = np.minimum.reduce(d2t, axis=0)
        assignments = (d2t == sq_dists).argmax(axis=0)
        ar = np.arange(n)

        self._gstarts = _centroid_groups(k)
        n_groups = self._gstarts.size - 1
        if k >= 2:
            # Mask the assigned entry so every group bound is a lower
            # bound on the distance to the *other* centroids of the group.
            d2t[assignments, ar] = np.inf
            lower = np.sqrt(_group_min_t(d2t, self._gstarts))
            lower *= 1.0 - _GUARD32
            self._lower = lower.astype(np.float32)
        else:
            self._lower = np.full((1, n), np.inf, dtype=np.float32)
        self._cum_drift = np.zeros(n_groups, dtype=np.float64)

        self._assignments = assignments
        self._sq_dists = sq_dists
        self._moved = None
        self._valid = True
        self._rebuild_sorted_cache(k)
        self._agg_rebuild = True
        self._member_rows = None
        self._member_sub_assign = None
        self.counters.distance_evals_computed += n * k
        self.counters.bound_groups += n_groups
        return assignments, sq_dists

    def _refresh_survivor_bounds(
        self, rows_d2t: np.ndarray, survivors: np.ndarray, k: int
    ) -> None:
        """Refresh group bounds for survivor rows from their exact row.

        ``rows_d2t`` is the transposed ``(k, m)`` distance block with the
        (new) assigned entries already masked with ``inf``.
        """
        lower = self._lower
        gstarts = self._gstarts
        cum = self._cum_drift
        assert lower is not None
        assert gstarts is not None and cum is not None
        vals = np.sqrt(_group_min_t(rows_d2t, gstarts))
        vals *= 1.0 - _GUARD32
        # Store with the current cumulative drift folded in, so the
        # shared per-group subtraction at test time nets out to only the
        # drift accumulated *since this refresh*.
        vals += cum[:, None]
        lower[:, survivors] = vals.astype(np.float32)

    def assign(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        assert self._points is not None, "kernel used before start()"
        started = time.perf_counter()
        pts = self._points
        n, k = pts.shape[0], centroids.shape[0]
        try:
            if not self._valid or self._assignments is None:
                return self._full_refresh(centroids)

            assignments = self._assignments
            prev_sq = self._sq_dists
            lower = self._lower
            cum = self._cum_drift
            assert prev_sq is not None and lower is not None and cum is not None
            n_groups = lower.shape[0]

            # Step 1: make every assigned distance exact again.  Rows
            # whose centroid is bitwise unchanged reuse last pass's value
            # (what cdist would reproduce bit for bit); rows of moved
            # clusters are re-evaluated from the sorted-by-cluster cache —
            # contiguous per-cluster slices, no argsort, no per-point
            # masks in original order.  Rows that switched clusters since
            # the cache was built ("dirty") fall back to the grouped path.
            sq_dists = prev_sq.copy()
            recompute = 0
            moved_cols = (
                np.flatnonzero(self._moved) if self._moved is not None
                else np.arange(k)
            )
            sorted_rows = self._sorted_rows
            sorted_pts = self._sorted_pts
            sbounds = self._sorted_bounds
            sdirty = self._sorted_dirty
            assert sorted_rows is not None and sorted_pts is not None
            assert sbounds is not None and sdirty is not None
            any_dirty = self._dirty_count > 0
            for j in moved_cols:
                lo, hi = sbounds[j], sbounds[j + 1]
                if lo == hi:
                    continue
                slice_d2 = _pair_sq_distances(
                    sorted_pts[lo:hi], centroids[j]
                )
                recompute += hi - lo
                rows_slice = sorted_rows[lo:hi]
                if any_dirty:
                    sl_clean = ~sdirty[lo:hi]
                    sq_dists[rows_slice[sl_clean]] = slice_d2[sl_clean]
                else:
                    sq_dists[rows_slice] = slice_d2
            if any_dirty:
                # Dirty rows assigned to a moved centroid need an exact
                # value too; unmoved ones keep last pass's bits.
                dirty_idx = (
                    self._dirty_chunks[0] if len(self._dirty_chunks) == 1
                    else np.concatenate(self._dirty_chunks)
                )
                if self._moved is not None:
                    dirt_rows = dirty_idx[self._moved[assignments[dirty_idx]]]
                else:
                    dirt_rows = dirty_idx
                if dirt_rows.size:
                    _grouped_assigned_sq(
                        pts, centroids, assignments,
                        rows=dirt_rows, out=sq_dists,
                    )
                    recompute += dirt_rows.size

            # Step 2: bound test against the *exact* assigned distance
            # (Yinyang's local filter — no drift slack on the upper
            # side).  Tightest group bound: stored bounds share a
            # per-group scalar cumulative-drift offset, inflated slightly
            # so the float32 subtraction is strictly conservative.
            adj = cum * (1.0 + _GUARD32)
            lmin = lower[0] - np.float32(adj[0])
            for g in range(1, n_groups):
                np.minimum(lmin, lower[g] - np.float32(adj[g]), out=lmin)

            if k >= 2:
                # Elkan inter-centroid filter: a point strictly inside
                # s(a) = half the distance to a's nearest other centroid
                # provably keeps its assignment (triangle inequality).
                cc = cdist(centroids, centroids, metric="euclidean")
                np.fill_diagonal(cc, np.inf)
                s_radius = 0.5 * cc.min(axis=1)
                s_radius *= 1.0 - _GUARD
                bound = np.maximum(lmin, s_radius[assignments])
            else:
                bound = lmin.astype(np.float64)

            upper = np.sqrt(sq_dists)
            survivor_mask = upper * (1.0 + _GUARD) >= bound
            survivors = np.flatnonzero(survivor_mask)
            m = survivors.size
            pruned = n - m

            computed = recompute + m * k
            self.counters.bound_check_hits += pruned
            self.counters.bound_groups += n_groups
            self.counters.distance_evals_computed += computed
            self.counters.distance_evals_skipped += max(n * k - computed, 0)

            if m:
                rows_d2t = cdist(
                    centroids, pts[survivors], metric="sqeuclidean"
                )
                # min + first-True match is ~2x faster than argmin(axis=0)
                # and keeps the identical first-index tie-break: argmax on
                # the boolean equality matrix returns the first row whose
                # value equals the columnwise minimum.
                row_sq = np.minimum.reduce(rows_d2t, axis=0)
                row_assign = (rows_d2t == row_sq).argmax(axis=0)
                arm = np.arange(m)
                old_assign = assignments[survivors]
                changed = row_assign != old_assign
                assignments[survivors] = row_assign
                sq_dists[survivors] = row_sq
                if k >= 2:
                    rows_d2t[row_assign, arm] = np.inf
                    self._refresh_survivor_bounds(rows_d2t, survivors, k)
                if changed.any():
                    switched = survivors[changed]
                    # Exact incremental aggregation: remember which
                    # clusters' membership changed this pass.
                    if self._agg_changed is not None:
                        self._agg_changed[old_assign[changed]] = True
                        self._agg_changed[row_assign[changed]] = True
                    else:
                        self._agg_rebuild = True
                    assert self._dirty is not None
                    assert self._sorted_pos is not None
                    assert self._sorted_dirty is not None
                    newly = switched[~self._dirty[switched]]
                    if newly.size:
                        self._dirty[newly] = True
                        self._sorted_dirty[self._sorted_pos[newly]] = True
                        self._dirty_chunks.append(newly)
                        self._dirty_count += newly.size
                if self._dirty_count * self._REBUILD_FRACTION > n:
                    self._rebuild_sorted_cache(k)

            self._sq_dists = sq_dists
            self._moved = None
            return assignments, sq_dists
        finally:
            self.counters.assign_calls += 1
            self.counters.assign_seconds += time.perf_counter() - started

    def aggregate(
        self, weighted_points: np.ndarray, assignments: np.ndarray, k: int
    ) -> np.ndarray:
        """Bit-exact per-cluster sums, recomputing only changed clusters.

        A cluster whose member *set* is unchanged since the cached sums
        were built would reproduce the exact same ``bincount`` bits (same
        contributions, same point-index order), so its cached row is
        reused verbatim.  Clusters touched by a membership change are
        re-summed with a subset ``bincount`` over their current members —
        ``np.flatnonzero`` yields rows in increasing index order, so each
        bin accumulates in the same order as the full ``bincount`` and
        the result is bit-identical.
        """
        if (
            self._agg_sums is None
            or self._agg_rebuild
            or self._agg_k != k
            or self._agg_changed is None
        ):
            self._agg_sums = aggregate_weighted_sums(
                weighted_points, assignments, k
            )
            self._agg_k = k
            self._agg_rebuild = False
            self._agg_changed = np.zeros(k, dtype=bool)
            self._member_rows = None
            self._member_sub_assign = None
            return self._agg_sums
        changed = np.flatnonzero(self._agg_changed)
        if changed.size:
            # Reuse the changed-cluster member gather from cluster_mass
            # when it ran this pass (consume-once cache).
            if self._member_rows is not None:
                rows = self._member_rows
                sub_assign = self._member_sub_assign
            else:
                rows = np.flatnonzero(self._agg_changed[assignments])
                sub_assign = assignments[rows]
            self._member_rows = None
            self._member_sub_assign = None
            sub_weighted = weighted_points[rows]
            sums = self._agg_sums
            for column in range(weighted_points.shape[1]):
                col_sums = np.bincount(
                    sub_assign, weights=sub_weighted[:, column], minlength=k
                )
                sums[changed, column] = col_sums[changed]
            self._agg_changed[:] = False
        return self._agg_sums

    def cluster_mass(
        self, weights: np.ndarray, assignments: np.ndarray, k: int
    ) -> np.ndarray:
        """Bit-exact per-cluster mass, recomputing only changed clusters.

        Same argument as :meth:`aggregate`: an unchanged member set
        reproduces the full ``bincount`` bits verbatim, and a subset
        ``bincount`` accumulates changed bins in the same increasing-row
        order.  The changed-cluster member gather is cached for
        :meth:`aggregate`, which runs next in the same pass.
        """
        if (
            self._mass is None
            or self._agg_rebuild
            or self._mass_k != k
            or self._agg_changed is None
        ):
            self._mass = np.bincount(assignments, weights=weights, minlength=k)
            self._mass_k = k
            return self._mass
        changed = np.flatnonzero(self._agg_changed)
        if changed.size:
            rows = np.flatnonzero(self._agg_changed[assignments])
            sub_assign = assignments[rows]
            self._member_rows = rows
            self._member_sub_assign = sub_assign
            sub_mass = np.bincount(
                sub_assign, weights=weights[rows], minlength=k
            )
            self._mass[changed] = sub_mass[changed]
        return self._mass

    def notify_update(
        self, old_centroids: np.ndarray, new_centroids: np.ndarray
    ) -> None:
        if not self._valid or self._lower is None:
            return
        drift = np.sqrt(((new_centroids - old_centroids) ** 2).sum(axis=1))
        gstarts = self._gstarts
        cum = self._cum_drift
        assert gstarts is not None and cum is not None
        # Per-group maximum drift, slightly inflated so subtracting the
        # accumulated value at test time is strictly conservative.
        group_drift = np.maximum.reduceat(drift, gstarts[:-1])
        cum += group_drift * (1.0 + _GUARD)
        moved = np.any(new_centroids != old_centroids, axis=1)
        self._moved = moved if self._moved is None else self._moved | moved


class BlasKernel(LloydKernel):
    """float32 GEMM kernel (``exact=False``): raw speed over bit-identity.

    Per run the points are copied once to a C-contiguous float32 matrix
    augmented with a constant-1 column.  Per pass the centroids become a
    float32 ``(d+1, k)`` matrix whose columns hold ``-2·c`` with ``‖c‖²``
    in the last row, so a single ``sgemm`` per cache-sized row block
    yields scores ``‖c‖² − 2·x·c`` whose argmin equals the distance
    argmin (the omitted ``‖x‖²`` is constant per row).  The same group
    bounds as :class:`ElkanKernel` restrict the GEMM to bound-check
    survivors.  Accuracy is kept within the documented tolerance
    (:func:`blas_mse_tolerance`) by three mechanisms:

    * survivor rows whose float32 winner margin is ambiguous are
      re-resolved with exact float64 ``cdist`` rows (``refine_rows``);
    * pruned rows keep a *stale* squared distance whose drift-inflated
      upper estimate stays valid by the triangle inequality — the
      estimate loosens as drift accumulates, so stale rows eventually
      re-enter the GEMM and refresh themselves;
    * the reported SSE never reads the stale per-point distances: it is
      computed algebraically from the incrementally maintained
      per-cluster sums (``SSE = Σw‖x‖² − 2·Σ_j c_j·S_j + Σ_j ‖c_j‖²·M_j``),
      which is exact in float64 given the current assignment;
    * per-cluster weighted sums are maintained incrementally from the
      switched rows only, re-synced from scratch periodically.

    Counters: ``gemm_calls`` counts BLAS invocations, ``refine_rows`` the
    float64-refined rows; ``computed + skipped`` still sums to the dense
    cost of the *executed* passes (the iteration count itself may differ
    from dense, since this tier's trajectory is only tolerance-close).
    """

    name = "blas"
    exact = False

    #: Row-block budget for the live float32 score block (~4 MiB).
    DEFAULT_TILE_BYTES = 4 << 20

    #: Full re-sync cadence for the incrementally maintained sums.
    _AGG_RESYNC_PASSES = 32

    def __init__(self, tile_bytes: int = DEFAULT_TILE_BYTES) -> None:
        super().__init__()
        if tile_bytes < 1024:
            raise ValueError(f"tile_bytes must be >= 1024, got {tile_bytes}")
        self._tile_bytes = tile_bytes
        self._paug: np.ndarray | None = None  # (n, d+1) float32, last col 1
        self._pnorm: np.ndarray | None = None  # (n,) float32 ‖x‖²
        self._p32: np.ndarray | None = None  # (n, d) float32 view of paug
        self._dist_eps = 0.0
        self._assignments: np.ndarray | None = None
        self._sq_dists: np.ndarray | None = None  # (n,) float64, tolerance
        self._acc_drift: np.ndarray | None = None  # (n,) float64 per point
        self._lower: np.ndarray | None = None  # (G, n) float32, +CD offset
        self._cum_drift: np.ndarray | None = None
        self._gstarts: np.ndarray | None = None
        self._drift: np.ndarray | None = None
        self._valid = False
        self._agg_sums: np.ndarray | None = None
        self._agg_k = -1
        self._agg_age = 0
        self._agg_rebuild = True
        self._moves: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # Algebraic-SSE state: Σ w·‖x‖² is constant per run; the
        # centroids seen by the latest ``assign`` anchor the identity.
        self._w2_total = 0.0
        self._wp: np.ndarray | None = None
        self._last_centroids: np.ndarray | None = None
        # Mass cache shared between ``cluster_mass`` and ``compute_sse``
        # (one weighted bincount per pass instead of two).
        self._mass: np.ndarray | None = None
        self._mass_k = -1

    def start(self, points: np.ndarray, weights: np.ndarray) -> None:
        super().start(points, weights)
        n, dim = points.shape
        pnorm64 = np.einsum("ij,ij->i", points, points)
        self._w2_total = float(np.dot(pnorm64, weights))
        self._wp = None
        self._last_centroids = None
        paug = np.empty((n, dim + 1), dtype=np.float32)
        paug[:, :dim] = points
        paug[:, dim] = 1.0
        self._paug = paug
        self._p32 = paug[:, :dim]
        self._pnorm = np.einsum(
            "ij,ij->i", self._p32, self._p32, dtype=np.float32
        )
        max_norm = float(self._pnorm.max()) if n else 0.0
        # Absolute slack for distance-space comparisons: float32 sqrt /
        # cancellation noise scales with the data magnitude.
        self._dist_eps = 1e-4 * (1.0 + np.sqrt(max(max_norm, 0.0)))
        self._assignments = None
        self._sq_dists = None
        self._acc_drift = None
        self._lower = None
        self._cum_drift = None
        self._gstarts = None
        self._drift = None
        self._valid = False
        self._agg_sums = None
        self._agg_k = -1
        self._agg_age = 0
        self._agg_rebuild = True
        self._moves = []
        self._mass = None
        self._mass_k = -1

    def invalidate(self) -> None:
        self._valid = False
        self._agg_rebuild = True
        self._mass = None

    def _tile_rows(self, k: int) -> int:
        return max(512, self._tile_bytes // (4 * max(1, k)))

    def _centroid_mats(
        self, centroids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """float32 ``(-2c | ‖c‖²)`` GEMM operand + float32 centroids.

        The operand is ``(k, d+1)`` so ``caug_t @ block.T`` emits scores
        already transposed ``(k, m)`` — the layout every downstream
        reduction wants (see :func:`_group_min_t`).
        """
        dim = centroids.shape[1]
        c32 = np.ascontiguousarray(centroids, dtype=np.float32)
        caug_t = np.empty((centroids.shape[0], dim + 1), dtype=np.float32)
        np.multiply(c32, np.float32(-2.0), out=caug_t[:, :dim])
        cnorm = np.einsum("ij,ij->i", c32, c32, dtype=np.float32)
        caug_t[:, dim] = cnorm
        cn_max = float(cnorm.max()) if cnorm.size else 0.0
        return caug_t, c32, cn_max

    def _score_rows(
        self,
        row_lo: int,
        row_hi: int,
        rows: np.ndarray | None,
        centroids: np.ndarray,
        caug: np.ndarray,
        cn_max: float,
        out_assign: np.ndarray,
        out_sq: np.ndarray,
        refresh_bounds: bool,
    ) -> None:
        """Score one block of rows: GEMM, argmin, refine, bounds refresh.

        ``rows=None`` scores the contiguous slice ``[row_lo, row_hi)``;
        otherwise ``rows`` are point indices (survivor subsets) and
        ``row_lo/row_hi`` delimit the slice *of that index array*.
        ``out_assign``/``out_sq`` are indexed the same way as ``rows``.
        """
        paug = self._paug
        pnorm = self._pnorm
        pts = self._points
        assert paug is not None and pnorm is not None and pts is not None
        k = centroids.shape[0]
        if rows is None:
            idx = None
            block = paug[row_lo:row_hi]
            bnorm = pnorm[row_lo:row_hi]
        else:
            idx = rows[row_lo:row_hi]
            block = paug[idx]
            bnorm = pnorm[idx]
        scores_t = caug @ block.T  # (k, m) — BLAS handles the view
        self.counters.gemm_calls += 1
        m = scores_t.shape[1]
        # min + first-True match beats argmin(axis=0) ~2x while keeping
        # the first-index tie-break (argmax on bool returns the first row
        # equal to the columnwise minimum).
        best = np.minimum.reduce(scores_t, axis=0)
        ra = (scores_t == best).argmax(axis=0)
        ar = np.arange(m)
        sq_block = np.maximum(bnorm + best, np.float32(0.0)).astype(np.float64)

        grouped = None
        if k >= 2:
            scores_t[ra, ar] = np.inf
            grouped = _group_min_t(scores_t, self._gstarts)
            second = grouped[0].copy()
            for g in range(1, grouped.shape[0]):
                np.minimum(second, grouped[g], out=second)
            # Ambiguous float32 winner margin → resolve with exact rows.
            margin = second - best
            thresh = np.float32(_BLAS_MARGIN) * (bnorm + np.float32(cn_max))
            thresh += np.float32(self._dist_eps * self._dist_eps)
            amb = np.flatnonzero(margin <= thresh)
            if amb.size:
                src = amb + row_lo if idx is None else idx[amb]
                exact = cdist(pts[src], centroids, metric="sqeuclidean")
                ra[amb] = np.argmin(exact, axis=1)
                sq_block[amb] = exact[np.arange(amb.size), ra[amb]]
                self.counters.refine_rows += int(amb.size)

        out_assign[row_lo:row_hi] = ra
        out_sq[row_lo:row_hi] = sq_block

        if refresh_bounds and k >= 2:
            # All-float32 bound refresh: the doubled ulp guard plus the
            # absolute ``dist_eps`` slack (applied here and at test time)
            # dominates the few-ulp float32 sqrt/add rounding.
            dist2 = np.maximum(bnorm[None, :] + grouped, np.float32(0.0))
            vals = np.sqrt(dist2)
            vals *= np.float32(1.0 - 2.0 * _GUARD32)
            vals -= np.float32(self._dist_eps)
            vals += self._cum_drift.astype(np.float32)[:, None]
            lower = self._lower
            if idx is None:
                lower[:, row_lo:row_hi] = vals
            else:
                lower[:, idx] = vals

    def _full_refresh(
        self, centroids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        pts = self._points
        assert pts is not None
        n, k = pts.shape[0], centroids.shape[0]
        self._gstarts = _centroid_groups(k)
        n_groups = self._gstarts.size - 1
        self._lower = np.full((max(n_groups, 1), n), np.inf, dtype=np.float32)
        self._cum_drift = np.zeros(n_groups, dtype=np.float64)
        caug, _c32, cn_max = self._centroid_mats(centroids)

        assignments = np.empty(n, dtype=np.intp)
        sq_dists = np.empty(n, dtype=np.float64)
        tile = self._tile_rows(k)
        for lo in range(0, n, tile):
            hi = min(n, lo + tile)
            self._score_rows(
                lo, hi, None, centroids, caug, cn_max,
                assignments, sq_dists, refresh_bounds=True,
            )
        self._assignments = assignments
        self._sq_dists = sq_dists
        self._acc_drift = np.zeros(n, dtype=np.float64)
        self._drift = None
        self._valid = True
        self._agg_rebuild = True
        self._moves = []
        self.counters.distance_evals_computed += n * k
        self.counters.bound_groups += n_groups
        return assignments, sq_dists

    def assign(self, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        assert self._points is not None, "kernel used before start()"
        started = time.perf_counter()
        n, k = self._points.shape[0], centroids.shape[0]
        try:
            self._last_centroids = centroids
            self._mass = None  # assignment may change; mass cache is stale
            if not self._valid or self._assignments is None:
                return self._full_refresh(centroids)

            assignments = self._assignments
            sq_dists = self._sq_dists
            acc = self._acc_drift
            lower = self._lower
            cum = self._cum_drift
            assert sq_dists is not None and acc is not None
            assert lower is not None and cum is not None
            n_groups = lower.shape[0]

            if self._drift is not None:
                acc += self._drift[assignments]
            upper_est = np.sqrt(sq_dists)
            upper_est += acc

            adj = cum * (1.0 + _GUARD32)
            lmin = lower[0] - np.float32(adj[0])
            for g in range(1, n_groups):
                np.minimum(lmin, lower[g] - np.float32(adj[g]), out=lmin)

            if k >= 2:
                cc = cdist(centroids, centroids, metric="euclidean")
                np.fill_diagonal(cc, np.inf)
                s_radius = 0.5 * cc.min(axis=1)
                s_radius *= 1.0 - _BLAS_GUARD
                s_radius -= self._dist_eps
                bound = np.maximum(lmin, s_radius[assignments])
            else:
                bound = lmin.astype(np.float64)

            survivor_mask = (
                upper_est * (1.0 + _BLAS_GUARD) + self._dist_eps >= bound
            )
            survivors = np.flatnonzero(survivor_mask)
            m = survivors.size
            pruned = n - m

            computed = m * k
            # Pruned rows keep their assignment and their *stale* squared
            # distance: ``sqrt(sq) + acc`` remains a valid upper bound by
            # the triangle inequality, and its growing slack pushes stale
            # rows back into the GEMM eventually.  SSE never reads these
            # values (see ``compute_sse``).

            if m:
                caug, _c32, cn_max = self._centroid_mats(centroids)
                ra = np.empty(m, dtype=np.intp)
                rsq = np.empty(m, dtype=np.float64)
                tile = self._tile_rows(k)
                for lo in range(0, m, tile):
                    hi = min(m, lo + tile)
                    self._score_rows(
                        lo, hi, survivors, centroids, caug, cn_max,
                        ra, rsq, refresh_bounds=True,
                    )
                old_assign = assignments[survivors]
                changed = ra != old_assign
                if changed.any():
                    rows = survivors[changed]
                    self._moves.append(
                        (rows, old_assign[changed], ra[changed])
                    )
                assignments[survivors] = ra
                sq_dists[survivors] = rsq
                acc[survivors] = 0.0

            self.counters.bound_check_hits += pruned
            self.counters.bound_groups += n_groups
            self.counters.distance_evals_computed += computed
            self.counters.distance_evals_skipped += max(n * k - computed, 0)
            self._drift = None
            return assignments, sq_dists
        finally:
            self.counters.assign_calls += 1
            self.counters.assign_seconds += time.perf_counter() - started

    def aggregate(
        self, weighted_points: np.ndarray, assignments: np.ndarray, k: int
    ) -> np.ndarray:
        """Incrementally maintained per-cluster sums (tolerance tier).

        Only rows that switched clusters update the cached sums; a full
        bit-exact re-sync runs every ``_AGG_RESYNC_PASSES`` passes (and
        after any refresh/repair) to stop float round-off from
        accumulating.
        """
        self._wp = weighted_points
        if (
            self._agg_sums is None
            or self._agg_rebuild
            or self._agg_k != k
            or self._agg_age >= self._AGG_RESYNC_PASSES
        ):
            self._agg_sums = aggregate_weighted_sums(
                weighted_points, assignments, k
            )
            self._agg_k = k
            self._agg_age = 0
            self._agg_rebuild = False
            self._moves = []
        else:
            self._flush_moves()
            self._agg_age += 1
        return self._agg_sums

    def _flush_moves(self) -> None:
        """Apply pending cluster switches to the cached per-cluster sums."""
        if not self._moves:
            return
        sums = self._agg_sums
        wp = self._wp
        assert sums is not None and wp is not None
        for rows, old, new in self._moves:
            moved_wp = wp[rows]
            np.subtract.at(sums, old, moved_wp)
            np.add.at(sums, new, moved_wp)
        self._moves = []

    def compute_sse(
        self, weights: np.ndarray, sq_dists: np.ndarray
    ) -> float:
        """Algebraic SSE from per-cluster sums — immune to stale rows.

        ``SSE = Σ_i w_i‖x_i‖² − 2·Σ_j c_j·S_j + Σ_j ‖c_j‖²·M_j`` where
        ``S_j`` are the maintained weighted sums and ``M_j`` the cluster
        masses.  This is exact (float64) for the *current* assignment,
        so the pruned rows' stale cached distances never leak into the
        reported SSE/MSE or the convergence test.
        """
        c = self._last_centroids
        if (
            c is None
            or self._agg_sums is None
            or self._wp is None
            or self._assignments is None
            or self._agg_k != c.shape[0]
        ):
            return float(np.dot(weights, sq_dists))
        self._flush_moves()
        k = c.shape[0]
        if self._mass is not None and self._mass_k == k:
            # lloyd asked for the mass of this same assignment earlier in
            # the pass — reuse it instead of a second bincount.
            mass = self._mass
        else:
            mass = np.bincount(
                self._assignments, weights=weights, minlength=k
            )
        cross = float(np.einsum("ij,ij->", c, self._agg_sums))
        cnorm = np.einsum("ij,ij->i", c, c)
        return max(self._w2_total - 2.0 * cross + float(np.dot(cnorm, mass)),
                   0.0)

    def cluster_mass(
        self, weights: np.ndarray, assignments: np.ndarray, k: int
    ) -> np.ndarray:
        """Reference weighted ``bincount``, cached for :meth:`compute_sse`."""
        self._mass = np.bincount(assignments, weights=weights, minlength=k)
        self._mass_k = k
        return self._mass

    def notify_update(
        self, old_centroids: np.ndarray, new_centroids: np.ndarray
    ) -> None:
        if not self._valid or self._lower is None:
            return
        drift = np.sqrt(((new_centroids - old_centroids) ** 2).sum(axis=1))
        gstarts = self._gstarts
        cum = self._cum_drift
        assert gstarts is not None and cum is not None
        group_drift = np.maximum.reduceat(drift, gstarts[:-1])
        cum += group_drift * (1.0 + _GUARD32)
        self._drift = drift if self._drift is None else self._drift + drift


_KERNELS: dict[str, type[LloydKernel]] = {
    DenseKernel.name: DenseKernel,
    HamerlyKernel.name: HamerlyKernel,
    ElkanKernel.name: ElkanKernel,
    BlasKernel.name: BlasKernel,
}


def available_kernels() -> tuple[str, ...]:
    """Names accepted by ``resolve_kernel`` (and the CLI/env knobs)."""
    return tuple(sorted(_KERNELS))


def _resolve_exact(exact: bool | None) -> bool:
    """Resolve the exactness requirement (arg → env → exact-by-default)."""
    if exact is not None:
        return bool(exact)
    raw = os.environ.get(EXACT_ENV_VAR)
    if raw is None or raw == "":
        return True
    lowered = raw.strip().lower()
    if lowered in {"1", "true", "yes", "on"}:
        return True
    if lowered in {"0", "false", "no", "off"}:
        return False
    raise ValueError(
        f"invalid {EXACT_ENV_VAR} value {raw!r}; "
        "expected one of 1/0, true/false, yes/no, on/off"
    )


def resolve_kernel(
    kernel: KernelChoice = None,
    exact: bool | None = None,
) -> LloydKernel:
    """Resolve a kernel selection to a fresh kernel instance.

    Precedence: an explicit ``kernel`` argument wins, then the
    ``REPRO_KMEANS_KERNEL`` environment variable, then ``"dense"``.
    Passing an instance hands it back as-is (the caller owns its
    lifecycle).  A zero-argument factory — such as
    :meth:`repro.core.spec.ClusterSpec.new_kernel`, which applies its
    own spec's exactness gate — is called and its instance returned.

    ``exact`` gates the tier: ``None`` consults ``REPRO_KMEANS_EXACT``
    and defaults to ``True``.  Selecting an ``exact=False`` kernel (the
    ``blas`` tier) without the waiver raises a ``ValueError`` — accuracy
    is never downgraded silently.  Unknown names raise a ``ValueError``
    naming the bad value, the valid kernels, and the environment
    variable when the name came from it.
    """
    if callable(kernel) and not isinstance(kernel, type):
        return kernel()
    require_exact = _resolve_exact(exact)
    if isinstance(kernel, LloydKernel):
        if require_exact and not kernel.exact:
            raise ValueError(
                f"kernel {kernel.name!r} waives the bit-identity contract; "
                f"opt in explicitly with exact=False "
                f"({EXACT_ENV_VAR}=0 / --no-exact)"
            )
        return kernel
    from_env = False
    name = kernel
    if name is None:
        env_value = os.environ.get(KERNEL_ENV_VAR)
        if env_value:
            name = env_value
            from_env = True
    if name is None or name == "":
        name = DenseKernel.name
    cls = _KERNELS.get(name)
    if cls is None:
        valid = ", ".join(available_kernels())
        if from_env:
            raise ValueError(
                f"{KERNEL_ENV_VAR}={name!r} names an unknown k-means kernel; "
                f"expected one of {valid}"
            )
        raise ValueError(
            f"unknown k-means kernel {name!r}; expected one of {valid}"
        )
    if require_exact and not cls.exact:
        raise ValueError(
            f"kernel {name!r} waives the bit-identity contract; "
            f"opt in explicitly with exact=False "
            f"({EXACT_ENV_VAR}=0 / --no-exact)"
        )
    return cls()


def blas_mse_tolerance(points: np.ndarray, reference_mse: float) -> float:
    """Documented error bound for the ``blas`` (``exact=False``) kernel.

    ``|mse_blas − mse_dense| ≤ 1e-3·mse_dense + 1024·eps32·scale²`` where
    ``scale² = max‖x‖²``.  The relative term covers the slightly looser
    float32 pruning (a near-tie resolved the other way shifts the local
    SSE by at most the ambiguity margin); the absolute term covers float32
    cancellation in ``‖x‖² − 2·x·c + ‖c‖²``, which scales with the data
    magnitude rather than the (possibly tiny) within-cluster distances.
    Benchmarks and Hypothesis property tests assert this bound.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    scale2 = float((pts * pts).sum(axis=1).max()) if pts.size else 0.0
    eps32 = float(np.finfo(np.float32).eps)
    return 1e-3 * float(reference_mse) + 1024.0 * eps32 * scale2


def blas_assign_to_nearest(
    points: np.ndarray,
    centroids: np.ndarray,
    tile_bytes: int = BlasKernel.DEFAULT_TILE_BYTES,
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot float32 GEMM nearest-centroid assignment (serving path).

    Same scoring as :class:`BlasKernel` — augmented float32 GEMM in row
    blocks, float64 refinement of ambiguous winner margins — without any
    cross-iteration state.  Returns ``(assignments, sq_dists)``; squared
    distances are float64 within the :func:`blas_mse_tolerance` regime.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    cents = np.ascontiguousarray(centroids, dtype=np.float64)
    n, dim = pts.shape
    k = cents.shape[0]
    paug = np.empty((n, dim + 1), dtype=np.float32)
    paug[:, :dim] = pts
    paug[:, dim] = 1.0
    pnorm = np.einsum(
        "ij,ij->i", paug[:, :dim], paug[:, :dim], dtype=np.float32
    )
    c32 = np.ascontiguousarray(cents, dtype=np.float32)
    caug = np.empty((dim + 1, k), dtype=np.float32)
    np.multiply(c32.T, np.float32(-2.0), out=caug[:dim])
    cnorm = np.einsum("ij,ij->i", c32, c32, dtype=np.float32)
    caug[dim] = cnorm
    cn_max = float(cnorm.max()) if k else 0.0

    assignments = np.empty(n, dtype=np.intp)
    sq_dists = np.empty(n, dtype=np.float64)
    tile = max(512, tile_bytes // (4 * max(1, k)))
    for lo in range(0, n, tile):
        hi = min(n, lo + tile)
        scores = paug[lo:hi] @ caug
        m = hi - lo
        ar = np.arange(m)
        ra = np.argmin(scores, axis=1)
        best = scores[ar, ra].copy()
        sq_block = np.maximum(
            pnorm[lo:hi] + best, np.float32(0.0)
        ).astype(np.float64)
        if k >= 2:
            scores[ar, ra] = np.inf
            margin = scores.min(axis=1) - best
            thresh = np.float32(_BLAS_MARGIN) * (
                pnorm[lo:hi] + np.float32(cn_max)
            )
            amb = np.flatnonzero(margin <= thresh)
            if amb.size:
                exact = cdist(pts[lo + amb], cents, metric="sqeuclidean")
                ra[amb] = np.argmin(exact, axis=1)
                sq_block[amb] = exact[np.arange(amb.size), ra[amb]]
        assignments[lo:hi] = ra
        sq_dists[lo:hi] = sq_block
    return assignments, sq_dists


def aggregate_weighted_sums(
    weighted_points: np.ndarray, assignments: np.ndarray, k: int
) -> np.ndarray:
    """Per-cluster sums of weighted points via per-dimension ``bincount``.

    Replaces the seed implementation's ``np.add.at`` scatter-add (which
    falls back to an unbuffered per-element inner loop) with one
    ``np.bincount`` per dimension.  Both accumulate sequentially in point
    order, so the sums are bit-identical — ``bincount`` is just an order
    of magnitude faster.
    """
    dim = weighted_points.shape[1]
    sums = np.empty((k, dim), dtype=np.float64)
    for column in range(dim):
        sums[:, column] = np.bincount(
            assignments, weights=weighted_points[:, column], minlength=k
        )
    return sums
