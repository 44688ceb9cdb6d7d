# Convenience targets; everything is plain cargo underneath.

.PHONY: all test bench doc examples lint summary

all: test

test:
	cargo test --workspace

bench:
	cargo bench --workspace 2>&1 | tee bench_output.txt

# Markdown summary of the e01-e21 benches. The gated benchmark is tdbench
# (BENCHMARK.json; bash crates/bench/src/bin/tdbench/run.sh), not this.
summary: bench_output.txt
	cargo run -p td-bench --bin bench_report < bench_output.txt > BENCH_SUMMARY.md

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
