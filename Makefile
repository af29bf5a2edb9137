# Convenience targets; everything runs with PYTHONPATH=src.
# Beyond `make test`: `make coverage` for a line-coverage gate and
# `make chaos` for the fault-injection corpus replay.

.PHONY: test bench bench-net bench-all coverage chaos recover race fleet fleet-chaos \
	perfbench-smoke

# Tier-1 suite (must stay green).
test:
	PYTHONPATH=src python -m pytest -x -q

# Tier-1 suite under pytest-cov with a line floor.  The environment
# ships without pytest-cov on purpose (no runtime deps); when it is
# absent this target explains itself instead of failing.
coverage:
	@PYTHONPATH=src python -c "import pytest_cov" 2>/dev/null \
		&& PYTHONPATH=src python -m pytest -x -q \
			--cov=repro --cov-report=term --cov-fail-under=80 \
		|| echo "coverage: pytest-cov not installed; skipping" \
			"(pip install pytest-cov to enable)"

# Replay the attack corpus under every canned fault schedule, check
# the isolation invariants, and prove the replay is a pure function
# of the seed by running it twice.
chaos:
	PYTHONPATH=src python -m repro.faultinject.chaos \
		--check-determinism

# Same corpus replay with the recovery supervisor enabled: every case
# must leave the kernel alive (oopses contained, taint clear), plus a
# per-schedule demonstration that a crashing program is quarantined
# and auto-reloaded back to health — deterministically per seed.
recover:
	PYTHONPATH=src python -m repro.faultinject.chaos \
		--recover --check-determinism

# Deterministic race hunt: explore seeded multi-CPU interleavings
# until both planted concurrency bugs (lock-discipline, RCU
# use-after-grace) are found with replayable seeds, then prove the
# race-free corpus clean (zero detector findings) and bit-identical
# across nproc=1/2/4.  REPRO_RACE_SMOKE=1 shrinks the budgets for CI.
race:
	PYTHONPATH=src python -m repro.faultinject.interleave

# Staged-rollout acceptance demo: a 200-node simulated fleet must
# take the good release to 100%, halt the planted bad release at its
# canary wave and roll every node back, and produce bit-identical
# rollout signatures + telemetry exports across two invocations of
# the same seed.  FLEET_NODES/FLEET_SEED override the defaults.
fleet:
	PYTHONPATH=src python -m repro.fleet.demo \
		--nodes $(or $(FLEET_NODES),200) \
		--seed $(or $(FLEET_SEED),7)

# Fleet under fire: both canonical releases rolled out under every
# control-channel chaos schedule (drops, dups, delays past the RPC
# deadline, partitions, crashing node agents), plus a crash/resume
# leg per pair — the orchestrator is killed at journal-append
# boundaries and resumed until the rollout lands, and the resumed
# report signature must be bit-identical to the uninterrupted run's.
# Runs twice to prove the whole harness is a pure function of the
# seed.  REPRO_FLEET_SMOKE=1 shrinks the fleet and schedules for CI.
fleet-chaos:
	PYTHONPATH=src python -m repro.fleet.chaos --check-determinism

# Interpreter/load-cache throughput plus telemetry overhead. Writes
# BENCH_throughput.json (compiled/interp speedup ratio gated at 80% of
# benchmarks/throughput_baseline.json) and BENCH_obs_overhead.json
# (stats-off compiled/interp dispatch ratio gated at 95% of
# benchmarks/obs_overhead_baseline.json — the "telemetry is free when
# off" contract).
bench:
	PYTHONPATH=src python -m pytest benchmarks/test_bench_throughput.py \
		benchmarks/test_bench_obs_overhead.py -q

# Data-plane packet rates: >= 1M seeded packets through the batched
# XDP pipeline, two runs per tier.  Writes BENCH_dataplane.json and
# gates on compiled-faster-than-interp, per-tier bit-identical
# signatures, and the compiled/interp pps ratio at 80% of
# benchmarks/dataplane_baseline.json.  REPRO_BENCH_SMOKE=1 shrinks
# the legs for CI.
bench-net:
	PYTHONPATH=src python -m pytest benchmarks/test_bench_dataplane.py -q

# Every paper figure/table benchmark.
bench-all:
	PYTHONPATH=src python -m pytest benchmarks -q

# Correctness smoke of the product-path benchmark: each workload runs
# briefly at the pinned seed, then xdp_filter (every checked access
# through the resolve cache), xdp_firewall (the stats-on helper+map
# path through the bound run instruments) and prog_load (every
# verifier coverage check through the prune index) once more under
# the per-layer tracer.  perfbench/run.py exits non-zero when a correctness check
# fails, a pinned signature moves, a traced pass's signature differs
# from the untraced one or its per-pass counts disagree, which fails
# the target; the timings themselves are not checked.
PERFBENCH_WORKLOADS = xdp_filter xdp_firewall prog_load fleet_rollout

perfbench-smoke:
	@for workload in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench-smoke: $$workload"; \
		python3 perfbench/run.py --workload $$workload --seed 1 \
			--seconds 2 --trace 0 || exit 1; \
	done
	@for workload in xdp_filter xdp_firewall prog_load; do \
		echo "perfbench-smoke: $$workload --trace 1"; \
		python3 perfbench/run.py --workload $$workload --seed 1 \
			--seconds 2 --trace 1 || exit 1; \
	done
