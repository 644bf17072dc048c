#!/usr/bin/env sh
# Repo verification: offline build, full test suite, and a deterministic
# fault-recovery smoke test. Exits non-zero on the first failure.
#
# Everything here must work without network or registry access — the
# workspace has no external dependencies.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release (offline)"
cargo build --release --workspace --bins --benches

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (workspace, deny warnings)"
cargo clippy --workspace -- -D warnings

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> kernel ratio guard (release: dense x CSC must keep pace with CSC x dense)"
# Both kernels do the same flops on the same 128x128 @ 5 % block, so the
# ratio of their rates does not depend on the host. Fails below 0.25: the
# strided loop the row-tiled kernel replaced sat at 0.09.
cargo test --release -q --test kernel_bit_identity -- --ignored dense_times_csc_keeps_pace

echo "==> cargo doc (no deps, deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> static analysis gate (lints + independent plan verification)"
# dmac-lint lints every shipped .dmac script and every crates/apps
# program, then re-verifies each planner output (5 planner configs +
# all three forced multiplication strategies for GNMF/PageRank) with
# the independent plan-invariant verifier. Exits non-zero on any
# error-severity diagnostic or verifier disagreement.
cargo run --release -q -p dmac-bench --bin dmac-lint > /dev/null

echo "==> fault-recovery smoke (seeded mid-run kill, GNMF)"
cargo run --release -q -p dmac-bench --bin faults > /dev/null

echo "==> real-cluster smoke (4 dmac-workerd processes, GNMF + PageRank)"
# Launches 4 real worker processes over local TCP (port 0), runs GNMF
# and PageRank on them, and requires every result bit-identical to the
# simulator oracle and every step's socket payload byte-equal to the
# metered wire bytes. Exits non-zero on divergence, unclean shutdown,
# or leaked worker processes.
cargo run --release -q -p dmac-bench --bin cluster_smoke > /dev/null

echo "==> perf package tests (own workspace: must still compile against crates/)"
# perf/ is a workspace of its own, so the builds above never compile
# it; its unit tests and tests/quick.rs (every workload for a moment,
# incl. pagerank_socket on real workers with relay_bytes == 0) catch an
# API change in crates/ that would break the repo benchmark.
cargo test --offline --quiet --manifest-path perf/Cargo.toml

echo "==> deterministic failure schedule (fixed seed, twice)"
cargo test -q --test failure_injection fault_schedule_and_results_are_seed_deterministic

echo "==> trace conformance (dense PageRank: actual bytes must not exceed predicted)"
# The trace bin exits non-zero if any step's measured cost-model bytes
# exceed the planner's Table 2 prediction, or if the dense run is not
# byte-for-byte exact. Also exports chrome://tracing JSON to target/traces/.
cargo run --release -q -p dmac-bench --bin trace > /dev/null

echo "==> fusion benchmark (GNMF + PageRank fused vs unfused, writes BENCH_fusion.json)"
# Exits non-zero if any run is not bit-identical to the unfused run, if
# fusion stops cutting GNMF's cell-wise block materializations by >=30%,
# or if the fusion_min_blocks threshold fails to skip the tiny workload.
cargo run --release -q -p dmac-bench --bin fusion > /dev/null

echo "==> density sweep benchmark (PageRank powerlaw, nnz-costed vs dense-costed, writes BENCH_density.json)"
# Exits non-zero if the nnz-costed planner fails to cut metered wire
# bytes by >=30% versus the density-blind Table-2 pricing at the
# sparsest setting, or if any setting's outputs diverge by a single bit.
cargo run --release -q -p dmac-bench --bin density > /dev/null

echo "==> durability crash matrix (checkpoint/recover at every injected crash point)"
# Deterministic crashes at all 8 snapshot/compaction/recovery boundaries
# for GNMF and PageRank; recovered runs must be bit-for-bit identical.
# Corrupt/torn blobs must degrade to an older snapshot or lineage replay,
# and dmac-served must recover tenants + plan cache across restarts.
cargo test -q --test durability_recovery --test serve_restart

echo "==> spill benchmark (halved RAM budget + snapshot resume, writes BENCH_spill.json)"
# Exits non-zero if the squeezed run fails to spill/reload (or drops
# entries), if snapshot resume is not cheaper than full lineage replay,
# or if either path changes a single output bit.
cargo run --release -q -p dmac-bench --bin spill > /dev/null

echo "==> memory benchmark (liveness certificates + early frees under halved RAM, writes BENCH_memory.json)"
# Exits non-zero if any run's measured residency exceeds its plan's
# certified peak, if early frees fail to cut the observed peak by >=25%
# under half the keep-all baseline's RAM, if spilled bytes are not
# strictly reduced, or if any output differs by a single bit.
cargo run --release -q -p dmac-bench --bin memory > /dev/null

echo "==> dmac-serve smoke (server + 8 concurrent dmac-cli clients)"
# Starts dmac-served on a free port, then dmac-cli smoke runs 8 client
# threads submitting GNMF/PageRank scripts. The smoke exits non-zero if
# the plan-cache hit rate is below 50%, any result diverges bit-wise
# from a serial single-Session replay, or the drain is not clean.
PORT_FILE=$(mktemp)
rm -f "$PORT_FILE"
./target/release/dmac-served --port-file "$PORT_FILE" > /dev/null &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "dmac-served did not come up" >&2; kill "$SERVED_PID" 2>/dev/null; exit 1; }
./target/release/dmac-cli smoke --addr "$(cat "$PORT_FILE")" --clients 8 --repeats 4 --min-hit-rate 0.5
# The smoke ends with a shutdown request; the server must drain and exit 0.
wait "$SERVED_PID"
rm -f "$PORT_FILE"

echo "==> dmac-serve throughput benchmark (1/4/8 clients, writes BENCH_serve.json)"
# Exits non-zero if any scale fails the smoke checks or the plan-cache
# hit rate drops below 50%.
cargo run --release -q -p dmac-bench --bin serve > /dev/null

echo "verify: OK"
