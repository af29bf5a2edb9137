"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload xdp_filter --seed 1 \\
        --seconds 20 --trace 0

The run repeats *passes* — set up fresh state, then do one fixed
amount of timed work — until ``--seconds`` have gone by, with a
minimum number of passes per workload.  Every pass checks its own
outputs; all passes of a run must also produce the same signature,
which for ``--seed 1`` must equal the pinned one.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs two
untraced reference passes, then installs the per-layer spans of
:mod:`perfbench.layers` and runs traced passes; it reports the
per-layer metrics, the tracing overhead, and checks that every count
is identical across the traced passes and that the traced signatures
equal the untraced one.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit).
The exit code is 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import repro  # noqa: E402,F401 - fails fast outside a full checkout

from perfbench import layers, pins  # noqa: E402
from perfbench.common import HostClock, median, quantile  # noqa: E402
from perfbench.progload import ProgLoadWorkload  # noqa: E402
from perfbench.rollout import RolloutWorkload  # noqa: E402
from perfbench.xdp import XdpWorkload  # noqa: E402

WORKLOADS = {
    "xdp_filter": XdpWorkload,
    "xdp_firewall": XdpWorkload,
    "prog_load": ProgLoadWorkload,
    "fleet_rollout": RolloutWorkload,
}

#: end-to-end metrics, in BENCHMARK.json order: (name, unit)
END_TO_END = (
    ("setup_s", "s"),
    ("ms_per_unit", "ms"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

#: untraced passes a traced run makes first, to measure the tracing
#: overhead against (and as many traced passes at least)
REFERENCE_PASSES = 2


def measure(workload: object, seconds: float, trace: bool) -> list:
    """Run passes until ``seconds`` are up; returns ``(result,
    setup_s, ledger)`` per pass (``ledger`` None when untraced)."""
    tracer = None
    need = 2 * REFERENCE_PASSES if trace else workload.min_passes
    passes = []
    perf = time.perf_counter
    start = perf()
    while len(passes) < need or perf() - start < seconds:
        if trace and len(passes) == REFERENCE_PASSES:
            # after the untraced reference passes, before the next
            # pass builds its kernels
            tracer = layers.Tracer()
            layers.install(tracer)
        if tracer:
            tracer.reset()
        gc.collect()
        with HostClock() as clock:
            if tracer:
                tracer.clock = clock
            mark = clock.start()
            state = workload.setup(tracer)
            setup_s = clock.stop(mark)
            result = workload.run(state, tracer, clock)
        del state
        passes.append((result, setup_s,
                       layers.snapshot(tracer) if tracer else None))
    return passes


def check(name: str, seed: int, passes: list) -> list:
    """Correctness failures across the passes of a run."""
    problems = [f"pass {index}: {problem}"
                for index, (result, __, __) in enumerate(passes)
                for problem in result.problems]
    signatures = {result.signature for result, __, __ in passes}
    if len(signatures) != 1:
        problems.append(f"passes disagree: {len(signatures)} distinct "
                        "signatures")
    pinned = pins.SIGNATURES.get(name)
    if seed == pins.DEFAULT_SEED and pinned is not None \
            and signatures != {pinned}:
        problems.append(f"signature {sorted(signatures)[0][:16]}... "
                        f"!= pinned {pinned[:16]}...")
    return problems


def op_medians(passes: list) -> list:
    """Each timed operation's median over the passes.  The passes of
    a run repeat the same inputs, so operation ``i`` of every pass is
    the same work; its median filters out host noise that hits one
    pass."""
    columns = zip(*(result.op_samples for result, __, __ in passes))
    return [median(column) for column in columns]


def ms_per_unit(passes: list, samples: list) -> float:
    """Per-operation medians summed over a pass, per unit of work —
    or, where the timed work is more than its operations (the fleet's
    rollout), the median over passes."""
    first = passes[0][0]
    if first.busy_s is None:
        return 1000.0 * sum(samples) / first.units
    return median([result.ms_per_unit for result, __, __ in passes])


def end_to_end(passes: list) -> dict:
    """The end-to-end metrics of an untraced run."""
    samples = op_medians(passes)
    return {
        "setup_s": median([setup for __, setup, __ in passes]),
        "ms_per_unit": ms_per_unit(passes, samples),
        "op_ms_p50": 1000.0 * quantile(samples, 0.5),
        "op_ms_p90": 1000.0 * quantile(samples, 0.9),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes: list) -> tuple:
    """The per-layer metrics of a traced run, plus the names of the
    counts that differed between traced passes."""
    reference = passes[:REFERENCE_PASSES]
    traced = passes[REFERENCE_PASSES:]
    counts = [layers.pass_counts(ledger, result.counts)
              for result, __, ledger in traced]
    mismatched = sorted(key for key in set().union(*counts)
                        if len({c.get(key) for c in counts}) != 1)
    ledger = layers.average([ledger for __, __, ledger in traced])
    program_counts = traced[0][0].counts
    values = layers.layer_metrics(
        ledger, program_counts,
        traced_ms_per_unit=median([result.ms_per_unit
                                   for result, __, __ in traced]),
        untraced_ms_per_unit=median([result.ms_per_unit
                                     for result, __, __ in reference]),
        counts_checked=len(counts[0]),
        count_mismatches=len(mismatched))
    return values, mismatched


def describe(name: str, values: dict, passes: list) -> str:
    """Human-readable summary with the workload's own metric names."""
    samples = sum(len(result.op_samples) for result, __, __ in passes)
    if name.startswith("xdp"):
        named = (f"pps={1000.0 / values['ms_per_unit']:.1f} "
                 f"burst_ms_p50={values['op_ms_p50']:.3f} "
                 f"burst_ms_p90={values['op_ms_p90']:.3f} "
                 f"bursts={samples}")
    elif name == "prog_load":
        hits = [value for result, __, __ in passes
                for value in result.info["hit_samples"]]
        named = (f"load_ms_p50={values['op_ms_p50']:.3f} "
                 f"load_ms_p90={values['op_ms_p90']:.3f} "
                 f"loads={samples} "
                 f"hit_us_p50={1e6 * quantile(hits, 0.5):.1f}")
    else:
        named = (f"rollout_ms_per_node={values['ms_per_unit']:.3f} "
                 f"deploy_ms_p50={values['op_ms_p50']:.3f} "
                 f"deploy_ms_p90={values['op_ms_p90']:.3f} "
                 f"deploys={samples}")
    return (f"  setup_s={values['setup_s']:.4f} {named} "
            f"peak_rss_mb={values['peak_rss_mb']:.1f}")


def main(argv: list = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="product-path benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=pins.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.workload, args.seed)
    passes = measure(workload, args.seconds, bool(args.trace))
    problems = check(args.workload, args.seed, passes)
    attempted = sum(result.attempted for result, __, __ in passes)
    failed = sum(result.failed for result, __, __ in passes)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)} "
          f"({workload.op} timed; unit={workload.unit})")
    print(f"  signature={passes[0][0].signature[:16]}... "
          f"failed_frac={failed / attempted:.6f} "
          f"({failed}/{attempted})")
    if args.trace:
        values, mismatched = per_layer(passes)
        units = {name: unit for name, unit, __ in layers.PER_LAYER}
        for name, __, __ in layers.PER_LAYER:
            print(f"  {name:34s} {values[name]:14.4f} {units[name]}")
        if mismatched:
            problems.append("counts differ between traced passes: "
                            + ", ".join(mismatched[:8]))
    else:
        values = end_to_end(passes)
        units = dict(END_TO_END)
        print(describe(args.workload, values, passes))
    for problem in problems:
        print(f"  FAIL: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
