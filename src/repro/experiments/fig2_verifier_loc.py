"""Figure 2: lines of code of the eBPF verifier over time.

Regenerates the series (verifier LoC per kernel version, 2014-2022)
and checks the paper's shape claims: monotone growth, roughly 7x over
the period, ~12k LoC by v6.1.  As a cross-check, measures this repo's
*own* verifier and reports its per-module breakdown — the same
phenomenon (feature checks dominating a small core) at model scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.history import (
    SeriesPoint,
    VERIFIER_FEATURES,
    verifier_loc_series,
)
from repro.analysis.loc import verifier_loc_breakdown
from repro.experiments import report


@dataclass
class Fig2Result:
    """Everything Figure 2 shows, plus the cross-check."""

    series: List[SeriesPoint]
    growth_factor: float
    final_loc: int
    own_verifier_breakdown: Dict[str, int]
    own_verifier_total: int
    features_by_version: Dict[str, List[str]]

    @property
    def monotone(self) -> bool:
        """True when the LoC series never decreases."""
        values = [p.value for p in self.series]
        return all(a <= b for a, b in zip(values, values[1:]))


def run() -> Fig2Result:
    """Regenerate Figure 2."""
    series = verifier_loc_series()
    breakdown = verifier_loc_breakdown()
    return Fig2Result(
        series=series,
        growth_factor=series[-1].value / series[0].value,
        final_loc=series[-1].value,
        own_verifier_breakdown=breakdown,
        own_verifier_total=sum(breakdown.values()),
        features_by_version=VERIFIER_FEATURES,
    )


def render(result: Fig2Result) -> str:
    """The Figure 2 artifact."""
    parts = [report.render_series(
        [(f"{p.version} ({p.year})", p.value) for p in result.series],
        title="Figure 2: LoC of the eBPF verifier by kernel version",
        x_label="kernel version", y_label="verifier LoC")]
    parts.append("")
    parts.append(report.render_table(
        ["module", "code LoC"],
        sorted(result.own_verifier_breakdown.items()),
        title="Cross-check: this reproduction's verifier, by module"))
    parts.append("")
    parts.append("Shape checks:")
    parts.append(report.check(
        "LoC growth is monotone across versions", result.monotone))
    parts.append(report.check(
        f"~7x growth 2014->2022 (measured {result.growth_factor:.1f}x)",
        5.0 <= result.growth_factor <= 9.0))
    parts.append(report.check(
        f"~12k LoC by v6.1 (measured {result.final_loc})",
        11_000 <= result.final_loc <= 13_000))
    return "\n".join(parts)


if __name__ == "__main__":
    print(render(run()))
