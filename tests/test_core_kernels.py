"""Kernel layer tests: bit-identity, counters, selection, early abandon.

The load-bearing property is the determinism contract: every *exact*
kernel must produce bit-identical ``assignments``, ``centroids``, ``sse``
and ``iterations`` to the dense reference on every input — including
weighted merge-style configurations and empty-cluster repair paths —
because the engine's crash-resume and cross-backend determinism
guarantees are built on top of it.  The ``blas`` tier (``exact=False``)
waives bit-identity for speed and must instead stay within the
documented :func:`~repro.core.kernels.blas_mse_tolerance` bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels import (
    EXACT_ENV_VAR,
    KERNEL_ENV_VAR,
    BlasKernel,
    DenseKernel,
    ElkanKernel,
    HamerlyKernel,
    KernelCounters,
    aggregate_weighted_sums,
    available_kernels,
    blas_mse_tolerance,
    merge_counter_dicts,
    resolve_kernel,
)
from repro.core.kmeans import _repair_empty_clusters, lloyd
from repro.core.merge import merge_kmeans
from repro.core.model import WeightedCentroidSet
from repro.core.restarts import best_of_restarts

#: Exact-tier kernels checked bit-for-bit against the dense reference.
ALT_KERNELS = ("hamerly", "elkan")


def _assert_identical(ref, alt, label):
    assert alt.assignments.tobytes() == ref.assignments.tobytes(), label
    assert alt.centroids.tobytes() == ref.centroids.tobytes(), label
    assert alt.cluster_weights.tobytes() == ref.cluster_weights.tobytes(), label
    assert alt.sse == ref.sse, label
    assert alt.mse == ref.mse, label
    assert alt.iterations == ref.iterations, label
    assert alt.converged == ref.converged, label


def _assert_blas_close(ref, pts, seeds, label, **lloyd_kwargs):
    """The blas tier must stay within the documented MSE tolerance."""
    alt = lloyd(pts, seeds, kernel="blas", exact=False, **lloyd_kwargs)
    tol = blas_mse_tolerance(pts, ref.mse)
    assert abs(alt.mse - ref.mse) <= tol, (label, alt.mse, ref.mse, tol)
    return alt


# ---------------------------------------------------------------------------
# Bit-identity property tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", range(8))
def test_kernels_bit_identical_randomized(case):
    """Random (n, k, d, weights, seeding) cases: all kernels, same bits."""
    rng = np.random.default_rng(1000 + case)
    n = int(rng.integers(50, 800))
    k = int(rng.integers(2, min(24, n // 2)))
    d = int(rng.integers(1, 12))
    pts = rng.normal(scale=rng.uniform(0.5, 50.0), size=(n, d))
    weights = (
        None if case % 3 == 0 else rng.uniform(0.0, 5.0, size=n)
    )
    seeds = pts[rng.choice(n, size=k, replace=False)]
    max_iter = int(rng.integers(5, 60))
    ref = lloyd(pts, seeds, weights=weights, max_iter=max_iter, kernel="dense")
    for name in ALT_KERNELS:
        alt = lloyd(pts, seeds, weights=weights, max_iter=max_iter, kernel=name)
        _assert_identical(ref, alt, (name, case))
    _assert_blas_close(
        ref, pts, seeds, ("blas", case), weights=weights, max_iter=max_iter
    )


def test_kernels_bit_identical_clustered_data():
    """Well-separated clusters (the pruning-friendly case)."""
    rng = np.random.default_rng(7)
    centers = rng.uniform(-100, 100, size=(10, 6))
    pts = np.vstack(
        [c + rng.normal(scale=0.5, size=(200, 6)) for c in centers]
    )
    seeds = pts[rng.choice(pts.shape[0], size=10, replace=False)]
    ref = lloyd(pts, seeds, kernel="dense")
    for name in ALT_KERNELS:
        _assert_identical(ref, lloyd(pts, seeds, kernel=name), name)
    _assert_blas_close(ref, pts, seeds, "blas clustered")


def test_kernels_bit_identical_weighted_merge_configuration():
    """The merge step's shape: few heavy weighted points, duplicates."""
    rng = np.random.default_rng(11)
    # Pooled partial summaries: many near-duplicate centroids with
    # point-count weights, exactly what merge_kmeans clusters.
    base = rng.normal(size=(12, 4))
    pooled = np.vstack([base + rng.normal(scale=1e-3, size=base.shape)
                        for _ in range(8)])
    weights = rng.integers(1, 500, size=pooled.shape[0]).astype(float)
    partials = [
        WeightedCentroidSet(pooled[i::8], weights[i::8], source=f"P{i}")
        for i in range(8)
    ]
    ref = merge_kmeans(partials, k=12, kernel="dense")
    for name in ALT_KERNELS:
        alt = merge_kmeans(partials, k=12, kernel=name)
        assert alt.model.centroids.tobytes() == ref.model.centroids.tobytes()
        assert alt.model.weights.tobytes() == ref.model.weights.tobytes()
        assert alt.mse == ref.mse
        assert alt.iterations == ref.iterations


def test_kernels_bit_identical_through_empty_cluster_repair():
    """Seeds chosen so some clusters start (and stay) empty."""
    rng = np.random.default_rng(3)
    pts = np.vstack(
        [
            rng.normal(loc=0.0, scale=0.1, size=(100, 3)),
            rng.normal(loc=50.0, scale=0.1, size=(100, 3)),
        ]
    )
    # All seeds in one clump: the far clump's seeds go empty on iteration
    # one and the repair path must fire.
    seeds = np.repeat(pts[:1], 6, axis=0) + rng.normal(
        scale=1e-6, size=(6, 3)
    )
    ref = lloyd(pts, seeds, kernel="dense")
    assert ref.iterations >= 1
    for name in ALT_KERNELS:
        _assert_identical(ref, lloyd(pts, seeds, kernel=name), name)
    _assert_blas_close(ref, pts, seeds, "blas repair")


def test_kernels_bit_identical_duplicate_centroids():
    """Exact distance ties must keep argmin's first-index behaviour."""
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(300, 2))
    seeds = np.vstack([pts[0], pts[0], pts[10], pts[20]])  # duplicated seed
    ref = lloyd(pts, seeds, kernel="dense", max_iter=20)
    for name in ALT_KERNELS:
        _assert_identical(ref, lloyd(pts, seeds, kernel=name, max_iter=20), name)


def test_kernels_bit_identical_through_restarts():
    """best_of_restarts consumes identical RNG streams per kernel."""
    rng_pts = np.random.default_rng(21)
    pts = rng_pts.normal(size=(400, 5))
    ref = best_of_restarts(
        pts, k=8, restarts=4, rng=np.random.default_rng(2), kernel="dense"
    )
    for name in ALT_KERNELS:
        alt = best_of_restarts(
            pts, k=8, restarts=4, rng=np.random.default_rng(2), kernel=name
        )
        assert alt.mses == ref.mses
        assert alt.iteration_counts == ref.iteration_counts
        assert alt.best_index == ref.best_index
        _assert_identical(ref.best, alt.best, name)


def test_kernels_bit_identical_high_k_regime():
    """k >= 40: the regime the elkan group bounds exist for."""
    rng = np.random.default_rng(29)
    pts = rng.normal(size=(2000, 6))
    seeds = pts[rng.choice(2000, size=48, replace=False)]
    ref = lloyd(pts, seeds, kernel="dense", max_iter=30)
    for name in ALT_KERNELS:
        alt = lloyd(pts, seeds, kernel=name, max_iter=30)
        _assert_identical(ref, alt, (name, "k=48"))
    _assert_blas_close(ref, pts, seeds, "blas k=48", max_iter=30)


# ---------------------------------------------------------------------------
# Input dtype / memory-layout coverage (satellite)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "layout", ["float32", "fortran", "strided", "fortran32"]
)
def test_kernels_accept_every_input_layout(layout):
    """float32 / Fortran-ordered / non-contiguous inputs: every kernel.

    ``lloyd`` canonicalises inputs to float64 C-contiguous before the
    kernel sees them, so every kernel must give the same answer for the
    same logical values regardless of the caller's dtype or layout.
    """
    rng = np.random.default_rng(31)
    base = rng.normal(size=(240, 5))
    seeds = base[rng.choice(240, size=9, replace=False)].copy()
    if layout == "float32":
        pts = base.astype(np.float32)
    elif layout == "fortran":
        pts = np.asfortranarray(base)
    elif layout == "strided":
        padded = rng.normal(size=(480, 5))
        padded[::2] = base
        pts = padded[::2]
        assert not pts.flags["C_CONTIGUOUS"]
    else:
        pts = np.asfortranarray(base.astype(np.float32))
    # Reference computed from the canonical float64 copy of the same values.
    canonical = np.ascontiguousarray(pts, dtype=np.float64)
    ref = lloyd(canonical, seeds, kernel="dense", max_iter=25)
    for name in ("dense",) + ALT_KERNELS:
        alt = lloyd(pts, seeds, kernel=name, max_iter=25)
        _assert_identical(ref, alt, (name, layout))
    _assert_blas_close(ref, pts, seeds, ("blas", layout), max_iter=25)


# ---------------------------------------------------------------------------
# Hypothesis property tests (satellite): tier contracts on random shapes
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=8, max_value=160),
    k=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=10),
)
def test_property_exact_kernels_bit_identical(seed, n, k, d):
    """Any (n, k, d): exact kernels reproduce dense bit for bit."""
    k = min(k, n)
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=rng.uniform(1e-2, 1e2), size=(n, d))
    seeds = pts[rng.choice(n, size=k, replace=False)]
    ref = lloyd(pts, seeds, kernel="dense", max_iter=15)
    for name in ALT_KERNELS:
        alt = lloyd(pts, seeds, kernel=name, max_iter=15)
        _assert_identical(ref, alt, (name, seed, n, k, d))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=8, max_value=160),
    k=st.integers(min_value=1, max_value=12),
    d=st.integers(min_value=1, max_value=10),
)
def test_property_blas_within_documented_tolerance(seed, n, k, d):
    """Any (n, k, d): the blas tier stays within blas_mse_tolerance."""
    k = min(k, n)
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=rng.uniform(1e-2, 1e2), size=(n, d))
    seeds = pts[rng.choice(n, size=k, replace=False)]
    ref = lloyd(pts, seeds, kernel="dense", max_iter=15)
    _assert_blas_close(ref, pts, seeds, (seed, n, k, d), max_iter=15)


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------


def test_dense_counters_account_every_evaluation():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(200, 4))
    seeds = pts[:8]
    result = lloyd(pts, seeds, kernel="dense")
    counters = result.counters
    assert counters is not None and counters.kernel == "dense"
    # One full (n, k) pass per iteration, +1 for repair re-assigns (none
    # here) and +1 for the final post-loop assignment.
    assert counters.assign_calls == result.iterations + 1
    assert counters.distance_evals_computed == counters.assign_calls * 200 * 8
    assert counters.distance_evals_skipped == 0
    assert counters.bound_check_hits == 0


@pytest.mark.parametrize("name", ALT_KERNELS)
def test_bounds_kernels_account_every_evaluation(name):
    rng = np.random.default_rng(1)
    centers = rng.uniform(-50, 50, size=(8, 5))
    pts = np.vstack([c + rng.normal(scale=0.3, size=(250, 5)) for c in centers])
    seeds = pts[rng.choice(pts.shape[0], 8, replace=False)]
    dense = lloyd(pts, seeds, kernel="dense")
    fast = lloyd(pts, seeds, kernel=name)
    assert fast.counters.distance_evals_skipped > 0
    assert fast.counters.bound_check_hits > 0
    # The pruning must translate into strictly less distance work than
    # the dense reference, and the accounting is exact: every evaluation
    # is either computed or provably skipped, never double-counted.
    assert (
        fast.counters.distance_evals_computed
        < dense.counters.distance_evals_computed
    )
    assert (
        fast.counters.distance_evals_computed
        + fast.counters.distance_evals_skipped
        == dense.counters.distance_evals_computed
    )
    assert fast.counters.assign_seconds >= 0.0
    if name == "elkan":
        # One group-bound set maintained per assignment pass.
        assert fast.counters.bound_groups >= fast.counters.assign_calls


def test_blas_counters_record_gemm_and_refines():
    rng = np.random.default_rng(2)
    centers = rng.uniform(-50, 50, size=(10, 4))
    pts = np.vstack([c + rng.normal(scale=0.4, size=(300, 4)) for c in centers])
    seeds = pts[rng.choice(pts.shape[0], 10, replace=False)]
    result = lloyd(pts, seeds, kernel="blas", exact=False)
    counters = result.counters
    assert counters.kernel == "blas"
    assert counters.gemm_calls > 0
    assert counters.refine_rows >= 0
    assert counters.bound_groups > 0
    # Accounting covers the executed passes (the trajectory itself may
    # differ from dense, so compare against this run's own pass count).
    dense_cost = counters.assign_calls * pts.shape[0] * 10
    assert (
        counters.distance_evals_computed + counters.distance_evals_skipped
        == dense_cost
    )


def test_counters_dict_roundtrip_and_merge():
    a = KernelCounters("hamerly", 100, 50, 10, 2, 0.5)
    b = KernelCounters.from_dict(a.as_dict())
    assert b == a
    assert KernelCounters.from_dict(None) is None
    # Unknown keys (future fields) are tolerated.
    payload = a.as_dict()
    payload["novel_field"] = 1
    assert KernelCounters.from_dict(payload) == a
    agg = KernelCounters()
    agg.merge(a)
    agg.merge(a)
    assert agg.distance_evals_computed == 200
    assert agg.kernel == "hamerly"
    merged = merge_counter_dicts({}, a.as_dict())
    merged = merge_counter_dicts(merged, a.as_dict())
    assert merged["distance_evals_computed"] == 200
    assert merged["kernel"] == "hamerly"
    assert merge_counter_dicts({"x": 1}, None) == {"x": 1}


def test_counters_dict_carries_new_fields():
    a = KernelCounters("blas", gemm_calls=7, refine_rows=13, bound_groups=5)
    payload = a.as_dict()
    assert payload["gemm_calls"] == 7
    assert payload["refine_rows"] == 13
    assert payload["bound_groups"] == 5
    roundtrip = KernelCounters.from_dict(payload)
    assert roundtrip == a
    merged = merge_counter_dicts({}, payload)
    merged = merge_counter_dicts(merged, payload)
    assert merged["gemm_calls"] == 14
    assert merged["bound_groups"] == 10


# ---------------------------------------------------------------------------
# Selection: resolve_kernel, the environment knobs, and the exact gate
# ---------------------------------------------------------------------------


def test_available_kernels_lists_all_four():
    assert available_kernels() == ("blas", "dense", "elkan", "hamerly")


def test_resolve_kernel_precedence(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    monkeypatch.delenv(EXACT_ENV_VAR, raising=False)
    assert isinstance(resolve_kernel(None), DenseKernel)
    assert isinstance(resolve_kernel("hamerly"), HamerlyKernel)
    monkeypatch.setenv(KERNEL_ENV_VAR, "elkan")
    assert isinstance(resolve_kernel(None), ElkanKernel)
    # Explicit argument beats the environment.
    assert isinstance(resolve_kernel("dense"), DenseKernel)
    # Instances pass through untouched.
    instance = HamerlyKernel()
    assert resolve_kernel(instance) is instance
    monkeypatch.setenv(KERNEL_ENV_VAR, "")
    assert isinstance(resolve_kernel(None), DenseKernel)


def test_resolve_kernel_rejects_unknown(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    with pytest.raises(ValueError, match="unknown k-means kernel"):
        resolve_kernel("fancy")


def test_resolve_kernel_names_env_var_for_bad_env_value(monkeypatch):
    """A bad REPRO_KMEANS_KERNEL value must be blamed on the env var."""
    monkeypatch.setenv(KERNEL_ENV_VAR, "fancy")
    with pytest.raises(ValueError) as excinfo:
        resolve_kernel(None)
    message = str(excinfo.value)
    assert KERNEL_ENV_VAR in message
    assert "'fancy'" in message
    for name in available_kernels():
        assert name in message


def test_exact_gate_blocks_blas_by_default(monkeypatch):
    monkeypatch.delenv(EXACT_ENV_VAR, raising=False)
    with pytest.raises(ValueError, match="bit-identity"):
        resolve_kernel("blas")
    with pytest.raises(ValueError, match="bit-identity"):
        resolve_kernel(BlasKernel())
    # The explicit waiver admits the tier.
    assert isinstance(resolve_kernel("blas", exact=False), BlasKernel)
    instance = BlasKernel()
    assert resolve_kernel(instance, exact=False) is instance


def test_exact_env_var_waives_and_rejects_garbage(monkeypatch):
    monkeypatch.setenv(EXACT_ENV_VAR, "0")
    assert isinstance(resolve_kernel("blas"), BlasKernel)
    monkeypatch.setenv(EXACT_ENV_VAR, "false")
    assert isinstance(resolve_kernel("blas"), BlasKernel)
    monkeypatch.setenv(EXACT_ENV_VAR, "1")
    with pytest.raises(ValueError, match="bit-identity"):
        resolve_kernel("blas")
    monkeypatch.setenv(EXACT_ENV_VAR, "maybe")
    with pytest.raises(ValueError, match=EXACT_ENV_VAR):
        resolve_kernel("blas")
    # An explicit argument beats the environment.
    monkeypatch.setenv(EXACT_ENV_VAR, "1")
    assert isinstance(resolve_kernel("blas", exact=False), BlasKernel)


def test_env_knob_drives_lloyd(monkeypatch):
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(120, 3))
    seeds = pts[:5]
    monkeypatch.setenv(KERNEL_ENV_VAR, "hamerly")
    via_env = lloyd(pts, seeds)
    assert via_env.kernel == "hamerly"
    monkeypatch.delenv(KERNEL_ENV_VAR)
    ref = lloyd(pts, seeds)
    assert ref.kernel == "dense"
    _assert_identical(ref, via_env, "env knob")


# ---------------------------------------------------------------------------
# Aggregation helper
# ---------------------------------------------------------------------------


def test_aggregate_weighted_sums_matches_scatter_add():
    rng = np.random.default_rng(9)
    for n, k, d in [(500, 7, 3), (64, 64, 17), (1000, 2, 1)]:
        weighted = rng.normal(size=(n, d))
        assignments = rng.integers(0, k, size=n)
        expected = np.zeros((k, d))
        np.add.at(expected, assignments, weighted)
        got = aggregate_weighted_sums(weighted, assignments, k)
        assert got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Early abandon
# ---------------------------------------------------------------------------


def test_early_abandon_never_changes_the_winner():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(600, 4))
    ref = best_of_restarts(pts, k=10, restarts=6, rng=np.random.default_rng(5))
    fast = best_of_restarts(
        pts, k=10, restarts=6, rng=np.random.default_rng(5), early_abandon=True
    )
    assert fast.best_index == ref.best_index
    _assert_identical(ref.best, fast.best, "early abandon")
    assert len(fast.mses) == 6
    # Abandoned runs did strictly less work.
    if fast.abandoned_runs:
        assert fast.counters.distance_evals_computed < (
            ref.counters.distance_evals_computed
        )


def test_abandoned_result_is_flagged_and_loses():
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(400, 3))
    # Absurdly low incumbent: any run projecting above it abandons fast.
    result = lloyd(pts, pts[:6], abandon_sse=1e-12, max_iter=100)
    assert result.abandoned
    assert result.sse > 1e-12
    no_abandon = lloyd(pts, pts[:6], max_iter=100)
    assert not no_abandon.abandoned


def test_first_restart_never_abandons():
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(200, 3))
    report = best_of_restarts(
        pts, k=5, restarts=1, rng=rng, early_abandon=True
    )
    assert report.abandoned_runs == 0
    assert not report.best.abandoned


# ---------------------------------------------------------------------------
# Empty-cluster repair regression (satellite: penalty refresh per donor)
# ---------------------------------------------------------------------------


def test_repair_two_empties_pick_distinct_regions():
    """Two simultaneously empty clusters must not take near-duplicate donors.

    Construction: the current assignment leaves the two farthest points as
    near-duplicates at x=100 (distances 10000 and ~10000), with the next
    independent outlier at x=50.  The stale-penalty bug reseeds the second
    empty centroid onto the *twin* of the first donor (its penalty was
    never refreshed against the new centroid); the fixed repair lowers the
    twin's penalty to ~1e-6 and picks the x=50 outlier instead.
    """
    points = np.array(
        [
            [0.0, 0.0],
            [0.0, 0.0],
            [0.0, 0.0],
            [0.0, 0.0],
            [0.0, 0.0],
            [100.0, 0.0],
            [100.0, 1e-3],
            [50.0, 0.0],
        ]
    )
    n = points.shape[0]
    weights = np.ones(n)
    centroids = np.zeros((3, 2))  # clusters 1 and 2 are empty
    assignments = np.zeros(n, dtype=np.intp)
    sq_dists = (points**2).sum(axis=1)
    empty = np.array([1, 2])
    _repair_empty_clusters(
        centroids, points, weights, assignments, sq_dists, empty
    )
    donors = [tuple(centroids[1]), tuple(centroids[2])]
    # Exactly one donor from the x=100 twin pair — the buggy version took
    # both twins and left the x=50 outlier unrepresented.
    twins = sum(1 for donor in donors if donor[0] == 100.0)
    assert twins == 1, donors
    assert (50.0, 0.0) in donors


def test_repair_degenerate_data_leaves_centroids():
    """All points on their centroids: nothing positive to donate."""
    points = np.zeros((4, 2))
    centroids = np.array([[0.0, 0.0], [9.0, 9.0]])
    assignments = np.zeros(4, dtype=np.intp)
    sq_dists = np.zeros(4)
    _repair_empty_clusters(
        centroids, points, np.ones(4), assignments, sq_dists, np.array([1])
    )
    assert centroids[1].tolist() == [9.0, 9.0]


def test_lloyd_repairs_multiple_empty_clusters_distinctly():
    """End-to-end: three tight clumps, all seeds exactly coincident.

    Iteration one assigns every point to cluster 0 (first-index ties), so
    clusters 1 and 2 are simultaneously empty and both get repaired in the
    same call — the regression scenario for the stale-penalty bug.
    """
    rng = np.random.default_rng(23)
    clumps = [
        rng.normal(loc=(0, 0), scale=0.01, size=(50, 2)),
        rng.normal(loc=(100, 0), scale=0.01, size=(2, 2)),
        rng.normal(loc=(0, 100), scale=0.01, size=(2, 2)),
    ]
    pts = np.vstack(clumps)
    seeds = np.repeat(pts[:1], 3, axis=0)
    result = lloyd(pts, seeds)
    # Every clump ends up owning at least one centroid: the repair spread
    # the empty centroids over distinct badly-represented regions.
    assigned_clumps = {
        int(np.argmin([np.abs(c - ctr).sum() for ctr in ((0, 0), (100, 0), (0, 100))]))
        for c in result.centroids
    }
    assert assigned_clumps == {0, 1, 2}
    assert result.sse < 1.0
