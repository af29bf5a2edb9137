"""Static call-graph complexity analysis (Figure 3).

The paper "statically analyzed the Linux kernel version 5.18 to
compute the call graph of each helper function" and reports the number
of unique nodes per helper.  This module is the equivalent analysis
over our synthetic kernel: an *independent* breadth-first reachability
measurement over the function database (it does not reuse the
closure sizes the generator computed — re-measurement is the point).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.ebpf.helpers.registry import HelperRegistry
from repro.kernel.funcdb import FunctionDatabase


@dataclass
class HelperComplexity:
    """Figure 3 datum for one helper."""

    name: str
    callgraph_nodes: int


@dataclass
class ComplexityReport:
    """The full Figure 3 population with the paper's summary stats."""

    helpers: List[HelperComplexity]

    @property
    def total(self) -> int:
        """Number of helpers measured."""
        return len(self.helpers)

    @property
    def max_helper(self) -> HelperComplexity:
        """The deepest helper (the paper: bpf_sys_bpf)."""
        return max(self.helpers, key=lambda h: h.callgraph_nodes)

    @property
    def min_helper(self) -> HelperComplexity:
        """The shallowest helper (the paper: pid_tgid at 0)."""
        return min(self.helpers, key=lambda h: h.callgraph_nodes)

    def fraction_at_least(self, threshold: int) -> float:
        """Fraction of helpers with >= ``threshold`` call-graph nodes
        (the paper: 52.2% at 30+, 34.5% at 500+)."""
        if not self.helpers:
            return 0.0
        hits = sum(1 for h in self.helpers
                   if h.callgraph_nodes >= threshold)
        return hits / len(self.helpers)

    def sorted_sizes(self) -> List[int]:
        """Sizes in ascending order (the Figure 3 scatter)."""
        return sorted(h.callgraph_nodes for h in self.helpers)

    def percentile(self, q: float) -> int:
        """q-th percentile of the size distribution."""
        sizes = self.sorted_sizes()
        if not sizes:
            return 0
        index = min(len(sizes) - 1, int(q * (len(sizes) - 1)))
        return sizes[index]


def reachable_count(db: FunctionDatabase, fn_id: int) -> int:
    """BFS over the static call graph: unique functions transitively
    reachable from ``fn_id`` (excluding itself)."""
    seen = {fn_id}
    queue = deque([fn_id])
    while queue:
        node = queue.popleft()
        for callee in db.callees_of(node):
            if callee not in seen:
                seen.add(callee)
                queue.append(callee)
    return len(seen) - 1


def measure_helper_complexity(db: FunctionDatabase,
                              registry: HelperRegistry
                              ) -> ComplexityReport:
    """Run the Figure 3 measurement: attach every helper to the call
    graph (idempotent) and BFS from each."""
    fn_ids = registry.attach_to_funcdb(db)
    helpers = [
        HelperComplexity(name=name,
                         callgraph_nodes=reachable_count(db, fn_id))
        for name, fn_id in sorted(fn_ids.items())
    ]
    return ComplexityReport(helpers=helpers)


def log_histogram(report: ComplexityReport,
                  edges: Sequence[int] = (1, 10, 30, 100, 500, 1000,
                                          5000)) -> List[Tuple[str, int]]:
    """Bucketize sizes for the Figure 3 rendering."""
    buckets: List[Tuple[str, int]] = []
    previous = 0
    sizes = report.sorted_sizes()
    for edge in edges:
        count = sum(1 for s in sizes if previous <= s < edge)
        buckets.append((f"[{previous},{edge})", count))
        previous = edge
    buckets.append((f"[{previous},inf)",
                    sum(1 for s in sizes if s >= previous)))
    return buckets
