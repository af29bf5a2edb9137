"""Metric primitives: counters, gauges, fixed-bucket histograms.

The registry is deliberately shaped like the kernel's own stats
surfaces rather than a general TSDB client: metric families carry a
name, help text and a fixed label schema, and instruments are cheap
plain-attribute objects so the hot path pays one dict lookup at most —
and usually zero, because callers cache the instrument once (the way
``bpf_prog_inc_misses_counter`` holds a pointer, not a name).

Everything here is framework-agnostic; gating on the
``kernel.bpf_stats_enabled`` analogue happens in the callers (see
:mod:`repro.telemetry.core`), never inside the instruments.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: default histogram bucket upper bounds (ns-scale work): powers of 4
DEFAULT_BUCKETS = (64, 256, 1024, 4096, 16384, 65536, 262144,
                   1048576, 4194304)


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter decrement ({amount}) forbidden")
        self.value += amount


class Gauge:
    """A value that can go up and down (pool usage, live programs)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: int) -> None:
        """Set the gauge to ``value``."""
        self.value = value

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` to the gauge."""
        self.value += amount

    def dec(self, amount: int = 1) -> None:
        """Subtract ``amount`` from the gauge."""
        self.value -= amount


class Histogram:
    """A fixed-bucket histogram (cumulative on export, like
    Prometheus ``le`` buckets)."""

    __slots__ = ("bounds", "bucket_counts", "count", "total")

    def __init__(self, bounds: Sequence[int] = DEFAULT_BUCKETS) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly "
                             f"increasing: {bounds!r}")
        self.bounds: Tuple[int, ...] = tuple(bounds)
        #: per-bucket (non-cumulative) observation counts; the last
        #: slot is the +Inf overflow bucket
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0

    def observe(self, value: int) -> None:
        """Record one observation.

        Bucket selection is a binary search over the bounds — the data
        plane observes per-packet latencies millions of times per bench
        run, so the linear scan this replaced was measurable."""
        self.count += 1
        self.total += value
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0 < q <= 1) from the buckets.

        Prometheus ``histogram_quantile`` semantics: find the bucket
        holding the target rank and interpolate linearly inside it.
        Observations beyond the last finite bound clamp to that bound;
        an empty histogram answers 0.0.  Deterministic — same
        observations, same answer — which is what lets bench runs
        assert bit-identical p50/p99/p999 across repeats."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile {q} outside (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bound in enumerate(self.bounds):
            in_bucket = self.bucket_counts[index]
            if cumulative + in_bucket >= rank:
                lower = self.bounds[index - 1] if index else 0
                if in_bucket == 0:
                    return float(bound)
                return lower + (bound - lower) * \
                    (rank - cumulative) / in_bucket
            cumulative += in_bucket
        return float(self.bounds[-1])

    def cumulative(self) -> List[Tuple[Optional[int], int]]:
        """``(upper_bound, cumulative_count)`` pairs; the final pair's
        bound is ``None`` meaning +Inf."""
        out: List[Tuple[Optional[int], int]] = []
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            out.append((bound, running))
        out.append((None, running + self.bucket_counts[-1]))
        return out

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0


class MetricFamily:
    """One named metric with a fixed label schema and one instrument
    per label-value combination."""

    def __init__(self, name: str, help_text: str, kind: str,
                 label_names: Sequence[str] = (),
                 buckets: Sequence[int] = DEFAULT_BUCKETS) -> None:
        if kind not in ("counter", "gauge", "histogram"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.help_text = help_text
        self.kind = kind
        self.label_names = tuple(label_names)
        self.buckets = tuple(buckets)
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, *values: object) -> object:
        """The instrument for one label-value combination,
        creating it on first use."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name}: got {len(values)} label values for "
                f"schema {self.label_names!r}")
        key = tuple(map(str, values))
        child = self._children.get(key)
        if child is None:
            if self.kind == "counter":
                child = Counter()
            elif self.kind == "gauge":
                child = Gauge()
            else:
                child = Histogram(self.buckets)
            self._children[key] = child
        return child

    def samples(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        """Every ``(label_values, instrument)`` pair, sorted by
        labels for deterministic export."""
        return sorted(self._children.items())

    def __len__(self) -> int:
        return len(self._children)


class MetricsRegistry:
    """The process-wide (here: kernel-wide) collection of metric
    families."""

    def __init__(self) -> None:
        self._families: "Dict[str, MetricFamily]" = {}

    def _family(self, name: str, help_text: str, kind: str,
                label_names: Sequence[str],
                buckets: Sequence[int]) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, help_text, kind, label_names,
                                  buckets)
            self._families[name] = family
            return family
        if family.kind != kind or family.label_names != tuple(label_names):
            raise ValueError(
                f"metric {name!r} re-registered with a different "
                f"kind/schema ({family.kind}/{family.label_names} vs "
                f"{kind}/{tuple(label_names)})")
        return family

    def counter(self, name: str, help_text: str = "",
                label_names: Sequence[str] = ()) -> MetricFamily:
        """Get or create a counter family."""
        return self._family(name, help_text, "counter", label_names,
                            DEFAULT_BUCKETS)

    def gauge(self, name: str, help_text: str = "",
              label_names: Sequence[str] = ()) -> MetricFamily:
        """Get or create a gauge family."""
        return self._family(name, help_text, "gauge", label_names,
                            DEFAULT_BUCKETS)

    def histogram(self, name: str, help_text: str = "",
                  label_names: Sequence[str] = (),
                  buckets: Sequence[int] = DEFAULT_BUCKETS
                  ) -> MetricFamily:
        """Get or create a histogram family."""
        return self._family(name, help_text, "histogram", label_names,
                            buckets)

    def families(self) -> List[MetricFamily]:
        """All registered families, sorted by name."""
        return [self._families[name]
                for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, if any."""
        return self._families.get(name)

    def __len__(self) -> int:
        return len(self._families)
