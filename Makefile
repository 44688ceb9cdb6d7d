# Convenience targets; everything is plain cargo underneath.

.PHONY: all test bench pairs doc examples lint

all: test

test:
	cargo test --workspace

# tdbench, the one benchmark (BENCHMARK.json): every workload, default length.
bench:
	bash crates/bench/src/bin/tdbench/run.sh

# The protocol behind every "gain" or "unmoved" on a gated workload: this
# checkout against a checkout of its parent commit, in alternating pairs.
#   make pairs PARENT=/root/scratch/parent WORKLOAD=datalog_views [PAIRS=10] [SECONDS=30]
pairs:
	bash scripts/pairs.sh $(PARENT) . $(WORKLOAD) $(or $(PAIRS),10) $(or $(SECONDS),30)

doc:
	cargo doc --workspace --no-deps

examples:
	cargo run --example quickstart
	cargo run --example banking
	cargo run --example genome_lab
	cargo run --example workflow_network
	cargo run --example machine_zoo
	cargo run --example loan_office

lint:
	cargo clippy --workspace --all-targets
