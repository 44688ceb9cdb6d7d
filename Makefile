# Convenience targets; everything is plain cargo underneath.

.PHONY: all test bench doc examples lint

all: test

test:
	cargo test --workspace

# tdbench, the one benchmark (BENCHMARK.json): every workload, default length.
bench:
	bash crates/bench/src/bin/tdbench/run.sh

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
