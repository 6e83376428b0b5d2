"""Coreset merge tree: millisecond clustering queries mid-stream.

The partial/merge pipeline only yields a cell's model when its final
watermark arrives; answering "what do the clusters look like *right
now*?" would otherwise cost a full re-merge over every buffered
partition.  Following Zhang, Tangwongsan & Tirthapura ("Streaming
k-Means Clustering with Fast Queries", see PAPERS.md), this module
maintains a per-cell **coreset tree** over the arriving weighted-centroid
partitions:

* every :class:`~repro.stream.items.CentroidMessage` becomes a leaf;
* whenever two subtrees of equal height exist they are eagerly merged
  (binary-counter discipline), each internal node caching the *reduced*
  ``k``-centroid summary of its dyadic partition range — so the live
  merge frontier is always the O(log P) binary decomposition of the
  inserted prefix;
* a **prefix query** pools the O(log P) frontier summaries and runs one
  tiny weighted k-means over ≤ ``k·log P`` centroids instead of the
  ``k·P`` a full re-merge touches — and repeated queries at the same
  prefix are answered from a result cache without any k-means at all;
* a **window query** ("cluster the last N chunks") re-merges only the
  O(log N) maximal tree nodes covering the window, descending into
  cached children where a frontier node straddles the window boundary.

Two exactness tiers coexist deliberately:

* **final models are exact** — :class:`CoresetTreeSink` subclasses
  :class:`~repro.stream.kmeans_ops.MergeKMeansSink`, so a completed
  cell's model is produced by the identical one-shot collective merge
  over the raw partition summaries, bit-identical to a run without the
  tree;
* **mid-stream queries are coreset approximations** — hierarchical
  composition of cached node merges.  Their weight mass is conserved
  exactly; their SSE is benchmarked against the exact model in
  ``benchmarks/test_bench_prefix_query.py`` (``BENCH_prefix.json``).

Determinism: leaves enter the tree in **partition order** (out-of-order
arrivals from cloned partial operators are stashed until the gap fills),
and every node merge is the deterministic largest-weight-seeded
:func:`~repro.core.merge.merge_kmeans` — so the tree, and every query
answer, is a pure function of the partition summaries.  That makes
thread- and process-backend runs bit-identical, and lets a crash-resume
rebuild the tree exactly from the journal's ``partition`` records
(adopting journaled ``tree_node`` records instead of recomputing the
merges).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.core.cell import merge_summaries
from repro.core.kernels import merge_counter_dicts
from repro.core.model import WeightedCentroidSet
from repro.core.spec import ClusterSpec
from repro.stream.errors import StreamError
from repro.stream.items import CentroidMessage
from repro.stream.kmeans_ops import MergeKMeansSink

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.stream.checkpoint import JournalWriter

__all__ = [
    "CoresetTreeError",
    "CoresetNode",
    "PrefixQuery",
    "CoresetTree",
    "CoresetTreeSink",
]


class CoresetTreeError(StreamError):
    """A coreset-tree query cannot be answered (empty tree, bad window)."""


@dataclass
class CoresetNode:
    """One node of the coreset tree.

    A node covers the dyadic partition range ``[start, start + count)``.
    Leaves (``count == 1``) hold a partition's raw weighted centroids;
    internal nodes hold the reduced ``k``-centroid merge of their two
    children.  Children are retained so window queries can descend below
    the live frontier; every retained summary is at most ``k`` centroids,
    so the whole tree stays O(P·k·d) floats for P partitions while the
    live frontier (:attr:`CoresetTree.roots`) stays O(log P) nodes.

    Attributes:
        start: first partition index covered.
        count: number of partitions covered (a power of two).
        height: ``log2(count)`` — 0 for leaves.
        summary: the node's weighted centroid summary.
        left: left child (``None`` for leaves).
        right: right child (``None`` for leaves).
        seconds: wall-clock spent computing this node's merge (0 for
            leaves and for nodes adopted from a journal).
        preloaded: whether the summary was adopted from journaled
            ``tree_node`` records instead of being recomputed.
    """

    start: int
    count: int
    height: int
    summary: WeightedCentroidSet
    left: "CoresetNode | None" = None
    right: "CoresetNode | None" = None
    seconds: float = 0.0
    preloaded: bool = False

    @property
    def end(self) -> int:
        """One past the last partition index covered."""
        return self.start + self.count

    @property
    def total_weight(self) -> float:
        """Weight mass summarised by this node."""
        return self.summary.total_weight


@dataclass(frozen=True)
class PrefixQuery:
    """Answer to one mid-stream clustering query.

    Attributes:
        cell_id: the queried grid cell (filled in by the sink; empty for
            queries issued directly against a :class:`CoresetTree`).
        start: first partition index covered by the answer.
        upto: one past the last partition index covered; a prefix query
            covers ``[0, upto)``, a window query ``[start, upto)``.
        model: the clustering — at most ``k`` weighted centroids whose
            weight mass equals the total mass of the covered partitions.
        nodes_reused: cached tree nodes pooled to form the answer.
        merge_iterations: Lloyd iterations the answering merge ran (0
            when the pooled frontier already had ≤ ``k`` centroids, or
            when the answer came from the query cache).
        cached: whether the answer was served from the query-result cache
            without running any k-means.
        seconds: wall-clock spent answering.
    """

    cell_id: str
    start: int
    upto: int
    model: WeightedCentroidSet
    nodes_reused: int
    merge_iterations: int
    cached: bool
    seconds: float

    @property
    def partitions(self) -> int:
        """Number of partitions the answer covers."""
        return self.upto - self.start


class CoresetTree:
    """Binary-counter coreset tree over one cell's partition stream.

    Args:
        spec: the run's :class:`~repro.core.spec.ClusterSpec`; every node
            and query merge uses its merge settings (``merge_k``
            centroids per summary).  Its fields may be given as keywords
            instead (``CoresetTree(k=3)``).
        node_sink: optional callback ``(start, count, summary)`` invoked
            for every *computed* internal merge — the journaling hook.
        preloaded: optional mapping ``(start, count) -> summary`` of
            journaled node summaries; matching internal merges are
            adopted instead of recomputed (crash-resume fast path).
    """

    def __init__(
        self,
        spec: ClusterSpec | None = None,
        node_sink: Callable[[int, int, WeightedCentroidSet], None] | None = None,
        preloaded: Mapping[tuple[int, int], WeightedCentroidSet] | None = None,
        **fields: Any,
    ) -> None:
        self.spec = ClusterSpec.of(spec, **fields)
        self._node_sink = node_sink
        self._preloaded = dict(preloaded or {})
        self._roots: list[CoresetNode] = []
        self._stash: dict[int, CentroidMessage] = {}
        self._next = 0
        self._query_cache: dict[
            tuple[int, int], tuple[WeightedCentroidSet, int, int]
        ] = {}
        #: Internal merges computed by this tree instance.
        self.node_merges = 0
        #: Internal merges adopted from journaled ``tree_node`` records.
        self.nodes_preloaded = 0
        #: Queries answered (including cache hits).
        self.queries = 0
        #: Queries answered from the result cache without any k-means.
        self.query_cache_hits = 0
        #: Wall-clock spent answering queries.
        self.query_seconds = 0.0
        #: Kernel instrumentation aggregated over node and query merges.
        self.kernel_counters: dict = {}

    # -- growth --------------------------------------------------------------

    @property
    def n_inserted(self) -> int:
        """Partitions merged into the tree (the contiguous prefix length)."""
        return self._next

    @property
    def n_stashed(self) -> int:
        """Out-of-order partitions waiting for the gap before them."""
        return len(self._stash)

    @property
    def depth(self) -> int:
        """Height of the tallest frontier node (0 for an empty tree)."""
        return max((root.height for root in self._roots), default=0)

    @property
    def roots(self) -> list[CoresetNode]:
        """Live frontier: the binary decomposition of ``[0, n_inserted)``."""
        return list(self._roots)

    def nodes(self) -> Iterator[CoresetNode]:
        """Every node in the tree (frontier plus retained descendants)."""
        stack = list(self._roots)
        while stack:
            node = stack.pop()
            yield node
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)

    @property
    def n_nodes(self) -> int:
        """Total nodes retained (leaves plus internal)."""
        return sum(1 for _ in self.nodes())

    def offer(self, message: CentroidMessage) -> int:
        """Stash ``message`` and drain the contiguous partition prefix.

        Leaves enter the tree strictly in partition order — an
        out-of-order arrival waits until every earlier partition has
        arrived, which is what makes the tree a pure function of the
        partition summaries regardless of clone scheduling or backend.
        Duplicate partitions (a journal replay racing a recompute would
        be a bug upstream) are rejected.

        Returns:
            Number of partitions drained into the tree by this offer.
        """
        index = message.partition
        if index < self._next or index in self._stash:
            raise ValueError(
                f"duplicate partition {index} offered to coreset tree "
                f"(prefix already at {self._next})"
            )
        self._stash[index] = message
        drained = 0
        while self._next in self._stash:
            self._push_leaf(self._stash.pop(self._next))
            self._next += 1
            drained += 1
        return drained

    def _push_leaf(self, message: CentroidMessage) -> None:
        self._roots.append(
            CoresetNode(
                start=message.partition,
                count=1,
                height=0,
                summary=message.summary,
            )
        )
        # Binary counter: merging equal-height neighbours keeps the
        # frontier at one node per set bit of the prefix length.
        while (
            len(self._roots) >= 2
            and self._roots[-1].count == self._roots[-2].count
        ):
            right = self._roots.pop()
            left = self._roots.pop()
            self._roots.append(self._merge_pair(left, right))

    def _merge_pair(self, left: CoresetNode, right: CoresetNode) -> CoresetNode:
        start, count = left.start, left.count + right.count
        adopted = self._preloaded.get((start, count))
        began = time.perf_counter()
        if adopted is not None:
            summary = adopted
            self.nodes_preloaded += 1
        else:
            result = merge_summaries(self.spec, [left.summary, right.summary])
            summary = result.model
            self.node_merges += 1
            if result.counters is not None and result.counters.assign_calls:
                merge_counter_dicts(
                    self.kernel_counters, result.counters.as_dict()
                )
            if self._node_sink is not None:
                self._node_sink(start, count, summary)
        return CoresetNode(
            start=start,
            count=count,
            height=left.height + 1,
            summary=summary,
            left=left,
            right=right,
            seconds=time.perf_counter() - began,
            preloaded=adopted is not None,
        )

    # -- queries -------------------------------------------------------------

    def _resolve_upto(self, upto: int | None) -> int:
        if self._next == 0:
            raise CoresetTreeError(
                "coreset tree is empty: no contiguous partition prefix yet"
            )
        if upto is None:
            return self._next
        if not 1 <= upto <= self._next:
            raise CoresetTreeError(
                f"prefix length {upto} out of range [1, {self._next}]"
            )
        return upto

    def query_prefix(self, upto: int | None = None) -> PrefixQuery:
        """Cluster the prefix ``[0, upto)`` (default: all inserted).

        Cost: one weighted k-means over the pooled O(log P) maximal
        nodes covering the prefix (≤ ``k·log P`` centroids); a repeat
        query at the same prefix is a cache hit and runs no k-means at
        all.  Because retained children let the tree cover *historical*
        prefixes, ``query_prefix(upto=m)`` is bit-identical to the query
        of a fresh tree holding only the first ``m`` partitions.

        Raises:
            CoresetTreeError: no partition inserted yet, or ``upto``
                exceeds the inserted prefix.
        """
        return self._query_range(0, self._resolve_upto(upto))

    def query_window(
        self, last_n: int, upto: int | None = None
    ) -> PrefixQuery:
        """Cluster the last ``last_n`` partitions of the prefix ``[0, upto)``.

        Covers ``[max(0, upto - last_n), upto)`` with the O(log N)
        maximal tree nodes inside the window, descending into retained
        children where a node straddles the window boundary.

        Raises:
            CoresetTreeError: empty tree, ``last_n < 1`` or ``upto`` out
                of range.
        """
        if last_n < 1:
            raise CoresetTreeError(f"window must be >= 1 chunk, got {last_n}")
        end = self._resolve_upto(upto)
        return self._query_range(max(0, end - last_n), end)

    def _query_range(self, a: int, b: int) -> PrefixQuery:
        began = time.perf_counter()
        self.queries += 1
        cached = self._query_cache.get((a, b))
        if cached is not None:
            model, nodes_reused, iterations = cached
            self.query_cache_hits += 1
            seconds = time.perf_counter() - began
            self.query_seconds += seconds
            return PrefixQuery(
                cell_id="",
                start=a,
                upto=b,
                model=model,
                nodes_reused=nodes_reused,
                merge_iterations=iterations,
                cached=True,
                seconds=seconds,
            )
        nodes = self._cover(a, b)
        result = merge_summaries(self.spec, [node.summary for node in nodes])
        if result.counters is not None and result.counters.assign_calls:
            merge_counter_dicts(self.kernel_counters, result.counters.as_dict())
        model = result.model
        self._query_cache[(a, b)] = (model, len(nodes), result.iterations)
        seconds = time.perf_counter() - began
        self.query_seconds += seconds
        return PrefixQuery(
            cell_id="",
            start=a,
            upto=b,
            model=model,
            nodes_reused=len(nodes),
            merge_iterations=result.iterations,
            cached=False,
            seconds=seconds,
        )

    def _cover(self, a: int, b: int) -> list[CoresetNode]:
        """Maximal nodes covering ``[a, b)``, in partition order."""
        covering: list[CoresetNode] = []
        for root in self._roots:
            self._cover_node(root, a, b, covering)
        return covering

    def _cover_node(
        self, node: CoresetNode, a: int, b: int, out: list[CoresetNode]
    ) -> None:
        if node.start >= b or node.end <= a:
            return
        if a <= node.start and node.end <= b:
            out.append(node)
            return
        # Partial overlap: leaves are atomic (count == 1, so they are
        # always fully inside or outside a partition-aligned range) and
        # internal nodes retain their children, so descent always works.
        assert node.left is not None and node.right is not None
        self._cover_node(node.left, a, b, out)
        self._cover_node(node.right, a, b, out)


class CoresetTreeSink(MergeKMeansSink):
    """Merge sink that additionally maintains a coreset tree per cell.

    Final models are **exactly** those of the parent
    :class:`~repro.stream.kmeans_ops.MergeKMeansSink` — the tree rides
    alongside the one-shot collective merge, it never replaces it — so
    swapping this sink in changes no result bit.  What it adds:

    * :meth:`query_now` / :meth:`query_last` — millisecond clustering of
      any cell's stream prefix (or trailing window) at any point;
    * a scheduled query log (``query_every``): a prefix query is issued
      every time a cell's contiguous prefix grows past a multiple of
      ``query_every`` partitions, recorded in :attr:`prefix_queries`
      (these are the latencies ``BENCH_prefix.json`` studies);
    * journaled ``tree_node`` records (when a journal is attached), so a
      crash-resume rebuilds every tree bit-identically without redoing
      the internal merges;
    * :attr:`tree_stats` — depth/node/merge/cache counters the executor
      copies into the run's :class:`~repro.stream.metrics.ExecutionMetrics`.

    Args:
        query_every: issue (and log) a prefix query each time a cell's
            inserted prefix crosses a multiple of this many partitions;
            ``None`` disables scheduled queries (ad-hoc queries still
            work).
        query_window: when set, scheduled queries cluster only the last
            this-many chunks instead of the whole prefix.

    Other arguments match :class:`~repro.stream.kmeans_ops.MergeKMeansSink`.
    """

    def __init__(
        self,
        spec: ClusterSpec | None = None,
        evaluate_on: Mapping[str, np.ndarray] | None = None,
        journal: "JournalWriter | None" = None,
        query_every: int | None = None,
        query_window: int | None = None,
        name: str = "merge",
        **fields: Any,
    ) -> None:
        super().__init__(
            spec, evaluate_on=evaluate_on, journal=journal, name=name, **fields
        )
        if query_every is not None and query_every < 1:
            raise ValueError(f"query_every must be >= 1, got {query_every}")
        if query_window is not None and query_window < 1:
            raise ValueError(f"query_window must be >= 1, got {query_window}")
        self.query_every = query_every
        self.query_window = query_window
        self._trees: dict[str, CoresetTree] = {}
        self._preloaded_nodes: dict[
            str, dict[tuple[int, int], WeightedCentroidSet]
        ] = {}
        self._last_scheduled: dict[str, int] = {}
        #: Scheduled query log, in issue order.
        self.prefix_queries: list[PrefixQuery] = []
        #: Final prefix query per cell, filled by :meth:`result`.
        self.final_queries: dict[str, PrefixQuery] = {}

    # -- tree plumbing -------------------------------------------------------

    def tree(self, cell_id: str) -> CoresetTree:
        """The cell's coreset tree (created on first use)."""
        tree = self._trees.get(cell_id)
        if tree is None:
            node_sink = None
            if self._journal is not None:
                journal = self._journal

                def node_sink(start, count, summary, _cell=cell_id):
                    journal.append_tree_node(_cell, start, count, summary)

            tree = CoresetTree(
                self.spec,
                node_sink=node_sink,
                preloaded=self._preloaded_nodes.get(cell_id),
            )
            self._trees[cell_id] = tree
        return tree

    def trees(self) -> dict[str, CoresetTree]:
        """All per-cell trees built so far."""
        return dict(self._trees)

    def preload_tree_nodes(
        self,
        nodes_by_cell: Mapping[
            str, Mapping[tuple[int, int], WeightedCentroidSet]
        ],
    ) -> None:
        """Adopt journaled node summaries (call before any insertion)."""
        for cell_id, nodes in nodes_by_cell.items():
            self._preloaded_nodes.setdefault(cell_id, {}).update(nodes)

    def consume(self, item) -> None:
        super().consume(item)
        if isinstance(item, CentroidMessage):
            self._insert(item)

    def preload(self, messages: Iterable[CentroidMessage]) -> None:
        """Replay journaled partitions into merge state *and* the tree."""
        messages = list(messages)
        for message in messages:
            self._insert(message)
        super().preload(messages)

    def preload_tree_messages(
        self, messages: Iterable[CentroidMessage]
    ) -> None:
        """Rebuild a completed cell's tree from journaled partitions.

        Unlike :meth:`preload` this feeds only the tree: the cell's final
        model was already adopted via ``preload_model``, so the merge
        state must not see the partitions again.
        """
        for message in messages:
            self._insert(message)

    def _insert(self, message: CentroidMessage) -> None:
        tree = self.tree(message.cell_id)
        if tree.offer(message) and self.query_every is not None:
            self._maybe_scheduled_query(message.cell_id, tree)

    def _maybe_scheduled_query(self, cell_id: str, tree: CoresetTree) -> None:
        # One query per crossed multiple of query_every, issued at exactly
        # that prefix length: a stash drain can advance the prefix past
        # several multiples at once (cloned partials deliver out of
        # order), and querying the historical prefixes keeps the log a
        # pure function of the partition summaries — identical across
        # arrival orders and backends.
        assert self.query_every is not None
        upto = tree.n_inserted
        due = self._last_scheduled.get(cell_id, 0) + self.query_every
        while due <= upto:
            if self.query_window is not None:
                answer = tree.query_window(self.query_window, upto=due)
            else:
                answer = tree.query_prefix(upto=due)
            self.prefix_queries.append(replace(answer, cell_id=cell_id))
            self._last_scheduled[cell_id] = due
            due += self.query_every

    # -- queries -------------------------------------------------------------

    def _require_tree(self, cell_id: str) -> CoresetTree:
        tree = self._trees.get(cell_id)
        if tree is None or tree.n_inserted == 0:
            raise CoresetTreeError(
                f"no coreset tree for cell {cell_id!r} "
                "(no contiguous partition prefix has arrived)"
            )
        return tree

    def query_now(self, cell_id: str) -> PrefixQuery:
        """Cluster ``cell_id``'s inserted stream prefix right now."""
        answer = self._require_tree(cell_id).query_prefix()
        return replace(answer, cell_id=cell_id)

    def query_last(self, cell_id: str, last_n: int) -> PrefixQuery:
        """Cluster the last ``last_n`` inserted chunks of ``cell_id``."""
        answer = self._require_tree(cell_id).query_window(last_n)
        return replace(answer, cell_id=cell_id)

    # -- results and accounting ----------------------------------------------

    def result(self):
        models = super().result()
        for cell_id in sorted(self._trees):
            tree = self._trees[cell_id]
            if tree.n_inserted:
                self.final_queries[cell_id] = self.query_now(cell_id)
            if tree.kernel_counters:
                merge_counter_dicts(
                    self.kernel_counters.setdefault("coreset", {}),
                    tree.kernel_counters,
                )
        return models

    @property
    def tree_stats(self) -> dict:
        """Aggregated tree accounting (copied into execution metrics)."""
        if not self._trees:
            return {}
        trees = self._trees.values()
        return {
            "cells": len(self._trees),
            "partitions": sum(tree.n_inserted for tree in trees),
            "nodes": sum(tree.n_nodes for tree in trees),
            "max_depth": max(tree.depth for tree in trees),
            "node_merges": sum(tree.node_merges for tree in trees),
            "nodes_preloaded": sum(tree.nodes_preloaded for tree in trees),
            "queries": sum(tree.queries for tree in trees),
            "query_cache_hits": sum(tree.query_cache_hits for tree in trees),
            "query_seconds": sum(tree.query_seconds for tree in trees),
            "scheduled_queries": len(self.prefix_queries),
        }
