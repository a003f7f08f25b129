# Convenience targets; everything is plain cargo underneath.

TRACE_DIR ?= target/trace-demo
METRICS_DIR ?= target/bench-metrics
BASELINE_DIR ?= crates/bench/baselines
CRITPATH_DIR ?= target/bench-critpath
CRITPATH_BASELINE_DIR ?= crates/bench/baselines-critpath
FULL_METRICS_DIR ?= target/full-metrics
FULL_BASELINE_DIR ?= crates/bench/baselines-full

.PHONY: all check fmt clippy doc test test-all tables tables-quick tables-check baseline-full \
        serve scaling netgen bench baseline critpath baseline-critpath \
        metrics-demo trace-demo racecheck fuzz hostbench hostbench-test hostbench-pairs \
        clean

all: check test

check: fmt clippy doc

fmt:
	cargo fmt --all --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc warnings (stale intra-doc links included) fail the check.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

test:
	cargo build --release
	cargo test -q

# `cargo test -q` above is the whole workspace in debug (tier-1; the root
# manifest's `default-members`). This is the same suite in release, which
# the lost-wake hammers in crates/sim/tests are sized for.
test-all:
	cargo test --release --workspace -q

tables:
	cargo run -p vopp-bench --release --bin tables -- all

tables-quick:
	cargo run -p vopp-bench --release --bin tables -- all --quick

# The paper-scale tables must reproduce docs/regenerated_tables.txt byte for
# byte, and the same run's full-scale metrics (the paper tables plus `ext`)
# must equal crates/bench/baselines-full/ byte for byte: the rendered text
# rounds seconds to two decimals, the metrics pin every nanosecond and count.
# The `ext` table prints last; its text is cut off before the text diff. About
# a minute on 2 cores. Peak RSS is set by the multi-node LRC_d Gauss cells'
# diff stores: about 1.5 GiB at --jobs 4, and about 1 GiB at --jobs 2 with one
# malloc arena (MALLOC_ARENA_MAX=1).
tables-check:
	rm -rf $(FULL_METRICS_DIR)
	mkdir -p $(FULL_METRICS_DIR)
	cargo run -p vopp-bench --release --bin tables -- all ext --jobs 4 --metrics $(FULL_METRICS_DIR) > $(FULL_METRICS_DIR)/tables.txt
	sed '/^Extension: /,$$d' $(FULL_METRICS_DIR)/tables.txt | diff docs/regenerated_tables.txt -
	rm $(FULL_METRICS_DIR)/tables.txt
	diff -r $(FULL_BASELINE_DIR) $(FULL_METRICS_DIR)

# Refresh the full-scale baselines after an intentional model change.
baseline-full:
	cargo run -p vopp-bench --release --bin tables -- all ext --jobs 4 --metrics $(FULL_BASELINE_DIR) > /dev/null

# The serving workload (docs/SERVING.md): open-loop sharded KV store
# across the protocol matrix, two offered loads, and loss/slowdown/crash
# fault scenarios. Opt-in like `ext`; not part of `all`.
serve:
	cargo run -p vopp-bench --release --bin tables -- serve --quick

# The 64/128-node scaling family: IS/Gauss/SOR at 64 and 128 nodes under
# LRC_d, HLRC, and VC_sd — the heaviest cells of the quick sweep. Opt-in
# like `ext`; not part of `all`.
scaling:
	cargo run -p vopp-bench --release --bin tables -- scaling --quick --metrics target/scaling-metrics

# Modern network generations (docs/NETWORK.md): IS/Gauss/SOR/NN across
# 100 Mbps / 10 GbE / RDMA under LRC_d, VC_sd, and the RDMA-native VC_rdma,
# with phase-accounting breakdown rows. Runs the byte-identity test suite
# first; BENCH_netgen.json is compared with its baseline inside `bench`,
# which sweeps netgen alongside the paper tables. Opt-in like `ext`; not part of
# `all`.
netgen:
	cargo test --release -p vopp-bench --test netgen
	cargo run -p vopp-bench --release --bin tables -- netgen --quick --metrics target/netgen-metrics

# Quick tables with machine-readable metrics, which must equal the
# committed baselines byte for byte (any changed, missing or extra file
# fails the build).
bench:
	rm -rf $(METRICS_DIR)
	cargo run -p vopp-bench --release --bin tables -- all serve scaling netgen --quick --metrics $(METRICS_DIR)
	diff -r $(BASELINE_DIR) $(METRICS_DIR)

# Refresh the committed baselines after an intentional perf change.
baseline:
	cargo run -p vopp-bench --release --bin tables -- all serve scaling netgen --quick --metrics $(BASELINE_DIR)

# Critical-path profile of the full quick sweep (docs/OBSERVABILITY.md):
# every table gains CP blame rows and what-if ceilings, the sweep writes
# BENCH_critpath.json, which must equal the committed baseline byte for
# byte. Covers all five protocols (stats tables + ext + serve).
critpath:
	cargo run -p vopp-bench --release --bin tables -- all ext serve --quick --critpath --metrics $(CRITPATH_DIR)
	diff $(CRITPATH_BASELINE_DIR)/BENCH_critpath.json $(CRITPATH_DIR)/BENCH_critpath.json

# Refresh the committed critpath baselines after an intentional change to
# the protocols or the cost model. Only BENCH_critpath.json is committed;
# the per-app artifacts stay gated by `make baseline`.
baseline-critpath:
	cargo run -p vopp-bench --release --bin tables -- all ext serve --quick --critpath --metrics $(CRITPATH_DIR)
	cp $(CRITPATH_DIR)/BENCH_critpath.json $(CRITPATH_BASELINE_DIR)/BENCH_critpath.json

# One metered table, artifacts left in target/metrics-demo for inspection.
metrics-demo:
	cargo run -p vopp-bench --release --bin tables -- table1 --quick --metrics target/metrics-demo
	@echo "Metrics artifacts in target/metrics-demo:"
	@ls target/metrics-demo

# A Perfetto-ready trace of IS on 4 nodes (quick scale): load the
# *.perfetto.json files from $(TRACE_DIR) in https://ui.perfetto.dev
# The exporters write JSON by hand (vopp_trace::json::Writer), so every
# document is also read back by a parser that shares no code with it.
trace-demo:
	cargo run -p vopp-bench --release --bin tables -- table1 --quick --critpath --trace $(TRACE_DIR)
	python3 -c 'import json,sys; [json.load(open(p)) for p in sys.argv[1:]]' \
		$(TRACE_DIR)/*.events.json $(TRACE_DIR)/*.perfetto.json
	@echo "Perfetto files in $(TRACE_DIR):"
	@ls $(TRACE_DIR)

# The host-performance benchmark (benchmark/README.md, BENCHMARK.json): the
# five-workload suite pinned to one CPU, about 4 min; arguments pass
# through, e.g. `make hostbench ARGS="--workload is64 --seconds 12 --trace 0"`.
# Host time is reported, never gated.
hostbench:
	bash benchmark/run.sh $(ARGS)

# Alternating pairs of pinned host-benchmark runs of two checkouts, then each
# side's median, quartiles and pairs won per end-to-end metric
# (tools/hostbench_pairs.sh), e.g.
# `make hostbench-pairs PARENT=../parent WORKLOAD=paper16 SEED0=201 N=10`.
PARENT ?=
CHANGE ?= .
WORKLOAD ?= paper16
SEED0 ?= 1
N ?= 10
hostbench-pairs:
	$(if $(PARENT),,$(error set PARENT to the parent checkout))
	bash tools/hostbench_pairs.sh $(PARENT) $(CHANGE) $(WORKLOAD) $(SEED0) $(N)

# The benchmark crate's own tests (a stand-alone workspace the root
# `cargo test --workspace` does not see).
hostbench-test:
	cd benchmark && cargo test --offline

# The dynamic-checker suite (docs/CORRECTNESS.md): clean applications
# across all five protocol×style cells must report zero violations, the
# seeded-racy variants their exact known-answer counts.
racecheck:
	cargo test --release -p vopp-bench --test racecheck -- --nocapture

# Differential runs (tests/differential.rs): seeded draws of IS/SOR/Gauss/NN
# parameters, cluster size, protocol, network generation and fault plan
# (none, 2 % loss or one slowed node), each equal to its sequential
# reference. `cargo test` runs a thousand draws; this runs the
# long budget in release. A failure prints the draw's seed.
fuzz:
	cargo test --release --test differential -- --include-ignored

clean:
	cargo clean
