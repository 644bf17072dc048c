#!/usr/bin/env sh
# Repo verification: offline build, lints, the full test suite, and the
# server driven end to end. Exits non-zero on the first failure.
#
# Everything here must work without network or registry access — the
# workspace has no external dependencies. Every correctness gate is a
# `cargo test`; performance is measured by perf/ (see BENCHMARK.json).
set -eu

cd "$(dirname "$0")/.."

# Fingerprint of the tracked files' uncommitted state (empty outside a git
# checkout), taken now and compared at the end.
tracked_state() { git diff 2> /dev/null | cksum; }
TRACKED_BEFORE=$(tracked_state)

echo "==> cargo build --release (offline)"
cargo build --release --workspace --bins

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> said once (one tile fold, one multiply stage, one tile decoder, one aligned stage, one persist, one victim rule, no pins, one sweep, one release path, a release is not a step, one re-derivation path, Table 2 spelled once, one tile move, one wire spelling, one write path, one byte ledger, one frame-length decoder, one generator, one digest, one acceptance rule, one planner switch, one fused step, one crash seam, one disk frame, one serve spelling)"
# A sixth copy of the In-Place fold cannot reappear unnoticed (`! grep`
# would not do: errexit ignores a negated command).
if grep -rn "matmul_acc(" crates/cluster/src crates/core/src; then exit 1; fi
# The simulator and the daemon run one multiply stage (kernels.rs'
# MulStage: each operand shard resolved once, every task folded against
# it): no second caller of the fold under crates/cluster/src, so no
# per-term tile lookup beside it. No exception is listed. (`.fold_tile(`
# is ReduceKind's.)
if find crates/cluster/src -name '*.rs' ! -name kernels.rs -exec awk \
    '/#\[cfg\(test\)\]/ { nextfile }
     /(^|[^.[:alnum:]_])(fold_tile|matmul_tile)\(/ && !/fn (fold_tile|matmul_tile)\(/ {
         print FILENAME ":" FNR ": " $0 }' {} + |
    grep .; then exit 1; fi
# Bytes from outside (wire frames, disk payloads) become blocks in
# transport/binfmt.rs only: a second decoder is a second set of bounds
# checks. Code up to a file's first #[cfg(test)]; tests build fixtures.
if find crates/core/src crates/cluster/src -name '*.rs' ! -name binfmt.rs -exec awk \
    '/#\[cfg\(test\)\]/ { nextfile }
     /CscBlock::from_csc\(|DenseBlock::from_vec\(/ { print FILENAME ":" FNR ": " $0 }' {} + |
    grep .; then exit 1; fi
# An aligned stage has one path (Cluster::cells -> the `fused` command):
# no per-operator enum beside it. (No per-operator worker command either:
# the command set is proto.rs' `enum Cmd`, counted below.)
if grep -rnE 'CellOp|UnaryTileOp' crates src; then exit 1; fi
# An entry's tiles become a blob in one place (Inner::persist: one encode,
# one put), and naming a payload is disk.rs's job: a second copy of
# "encode -> hash -> verify -> put" in the store cannot reappear unnoticed.
awk '/#\[cfg\(test\)\]/ { exit }
     /encode_dist\(/ { enc++ } /put_blob\(/ { put++ } /Digest::of\(/ { sum++ }
     END { if (enc != 1 || put != 1 || sum != 0) {
               print FILENAME ": encode_dist( x" enc+0 ", put_blob( x" put+0 ", Digest::of( x" sum+0 " (want 1, 1, 0)"
               exit 1 } }' crates/core/src/store.rs
# Who goes when the budget is short is decided in one place (Inner::victim:
# a batch's next reads, LRU when there are none) — a second `min_by` would be
# a second policy. And what a run hands back is absorbed in key order: the
# store's counters repeat only if `RunOutputs` keeps sorted maps.
awk '/#\[cfg\(test\)\]/ { exit }
     /fn victim\(/ { rule++ } /min_by\(/ { pick++ }
     END { if (rule != 1 || pick != 1) {
               print FILENAME ": fn victim( x" rule+0 ", min_by( x" pick+0 " (want 1, 1)"
               exit 1 } }' crates/core/src/store.rs
for field in stored cached_inputs; do
    grep -q "pub $field: BTreeMap<" crates/core/src/engine.rs || {
        echo "crates/core/src/engine.rs: RunOutputs.$field must be a BTreeMap (Session::absorb_outputs walks it)"
        exit 1
    }
done
# Who still holds a value is decided once. The store has no pins — no
# non-test code ever set one, and a reader in flight shares its tiles by
# `Arc` — so it has no over-commit either: neither may come back.
if grep -rnE 'fn pin\(|over_commits|StoreOverCommit' crates src; then exit 1; fi
# And a session does not hand-collect what it displaced: after anything
# that can drop a handle it tells the cluster the live set, in one place
# (Session::sweep), and the transport frees the rest. A `displaced` list
# in code (comments may say the word) or a second call is a second
# bookkeeping that can miss what the first one sees.
awk '/#\[cfg\(test\)\]/ { exit }
     !/^[[:space:]]*\/\// && /displaced/ { list++ } /cluster\.retain\(/ { sweep++ }
     END { if (list != 0 || sweep != 1) {
               print FILENAME ": `displaced` in code x" list+0 ", cluster.retain( x" sweep+0 " (want 0, 1)"
               exit 1 } }' crates/core/src/session.rs
# And a dead value's shards leave the workers one way per caller:
# Cluster::free — the step the plan's release record names, whether it
# consumed the value or frees it after running — and Cluster::retain, a
# session's sweep. A third `retain_values(` would be a second release path
# beside the plan's one decision.
awk '/#\[cfg\(test\)\]/ { exit }
     /retain_values\(/ { n++ }
     END { if (n != 2) {
               print FILENAME ": retain_values( x" n+0 " (want 2: free, retain)"
               exit 1 } }' crates/cluster/src/cluster.rs
# A release is not a step: the plan records which step releases each dead
# value (Plan::releases), so `enum PlanStep` has no `Free` variant and no
# pass splices release steps into `plan.steps` after planning.
awk '/^pub enum PlanStep/ { inside = 1 } inside && /^}/ { inside = 0 }
     inside && /^    Free[ ,{]/ { print FILENAME ":" FNR ": " $0; bad++ }
     END { if (bad) exit 1 }' crates/core/src/plan.rs
if grep -rn "fn splice_frees(" crates src; then exit 1; fi
# One re-derivation path: a value a free dependency gives back is rebuilt
# by liveness::rederive, which the planner's one finish runs on every
# plan, so the memory guard compares lean with lean. No transpose-only
# pass and no capped second finish sit beside it.
if grep -rnE "fn rederive_transposes\(|fn finish_within\(" crates src; then exit 1; fi
# Table 2 is spelled once: dependency::classify decides which dependency
# links two copies of a matrix, and both the planner's free acquisition
# and the liveness pass's rebuild ask it (in code, before the tests). No
# second spelling sits beside it: no planner-side path enum, no event
# vocabulary, and no step for the paper's null `reference` operator — the
# held node itself satisfies a Reference dependency. The verifier keeps
# its own, disjoint re-derivation, so it never asks dmac-core's table.
if grep -rn "enum FreePath" crates src || [ -e crates/core/src/event.rs ]; then exit 1; fi
awk '/^pub enum PlanStep/ { inside = 1 } inside && /^}/ { inside = 0 }
     inside && /^    Reference[ ,{]/ { print FILENAME ":" FNR ": " $0; bad++ }
     END { if (bad) exit 1 }' crates/core/src/plan.rs
for f in crates/core/src/planner.rs crates/core/src/liveness.rs; do
    awk '/#\[cfg\(test\)\]/ { exit } /classify\(/ { n++ }
         END { if (!n) { print FILENAME ": never calls classify(" ; exit 1 } }' "$f"
done
if grep -rn "dependency::" crates/analyze; then exit 1; fi
# One acceptance rule: the placement product and the coordinate descent
# both ask `improves` (strictly fewer bytes and no higher a certified peak
# than the incumbent), so the peak comparison is spelled once, inside it,
# in code before the tests.
awk '/#\[cfg\(test\)\]/ { exit }
     /^fn improves\(/ { inside = 1 }
     { code = $0; sub(/\/\/.*/, "", code) }
     code ~ /certificate\.peak <=/ { n++; if (inside) here++ }
     inside && /^}/ { inside = 0 }
     END { if (n != 1 || here != 1) {
               print FILENAME ": certificate.peak <= x" n+0 ", inside fn improves( x" here+0 " (want 1, 1)"
               exit 1 } }' crates/core/src/planner.rs
# One planner switch: SystemML-S is DMac "without utilizing matrix
# dependency", so `exploit_dependencies` selects the whole of Algorithm 1
# (multiplication-first order, Pull-Up Broadcast, Re-assignment) or none
# of it, and CPMM is always a candidate. PlannerConfig's pub fields are
# that switch and the block size; a session picks its planner by
# SystemKind alone; no ablation bench and no per-heuristic switch remain.
awk '/^pub struct PlannerConfig/ { inside = 1 } inside && /^}/ { inside = 0 }
     inside && /^    pub [a-z_0-9]+:/ { f = f " " substr($2, 1, length($2) - 1) }
     END { if (f != " exploit_dependencies fusion_block") {
               print FILENAME ": PlannerConfig pub fields:" f " (want exploit_dependencies fusion_block)"
               exit 1 } }' crates/core/src/planner.rs
if grep -n "fn planner(" crates/core/src/session.rs ||
    [ -e crates/bench/src/bin/paper/ablation.rs ]; then exit 1; fi
if grep -rnE 'multiplication_first|pull_up_broadcast|re_assignment|allow_cpmm' \
    crates src tests examples; then exit 1; fi
# One fused step: a fused cell-wise chain is PlanStep::Fused with no
# product leaves, and a multiply and the update that reads it run as one
# such step; a lone RMM is a fused stage of one product leaf, so there is
# no worker command of its own (the Cmd count below is 12).
if grep -rnE 'FusedCellWise|Cmd::Mm\b' crates src tests examples; then exit 1; fi
# One crash seam: the disk tier touches the file system only through its
# numbered I/O seam (`impl Io` in disk.rs), so crashing a run at call i,
# for every i, reaches every durability step. No named crash point or
# hand-placed check sits beside it, and no `fs::` / `File::` call in
# disk.rs' code (before its tests) sits outside the seam.
if grep -rnE 'CrashPoint|crash_check|crash_fires' crates src tests examples; then exit 1; fi
awk '/#\[cfg\(test\)\]/ { exit }
     /^impl Io \{/ { inside = 1 } inside && /^}/ { inside = 0; next }
     !inside && /(fs|File)::/ { print FILENAME ":" FNR ": " $0; bad++ }
     END { if (bad) exit 1 }' crates/core/src/disk.rs
# One disk frame: every file the tier writes (blob, manifest, CURRENT,
# plan) is one frame — magic, length, payload, digest — that one writer
# puts down and one reader verifies before any payload byte is looked at;
# a manifest's payload is JSON, read by the workspace's one decoder
# (jsonin). No text format, magic or parser of the tier's own sits beside
# it, and disk.rs' code (before its tests) reads a file in one place,
# inside fn read_frame.
if grep -rnE 'MANIFEST_MAGIC|PLAN_MAGIC|fn escape_name|fn parse_manifest|fn parse_scheme' crates src; then
    exit 1
fi
awk '/#\[cfg\(test\)\]/ { exit }
     match($0, /^ *(pub(\([a-z]+\))? )?fn [a-z_0-9]+/) { f = $0; sub(/^.*fn /, "", f); sub(/[^a-z_0-9].*/, "", f) }
     /self\.io\.read\(/ { n++; if (f == "read_frame") here++ }
     END { if (n != 1 || here != 1) {
               print FILENAME ": self.io.read( x" n+0 ", inside fn read_frame( x" here+0 " (want 1, 1)"
               exit 1 } }' crates/core/src/disk.rs
# The cluster meters only bytes a primitive moves (Cluster::send) and
# records spans in finish_op / charge_recovery: no side door charges
# modelled traffic. And a tile moves one way: a worker's `xfer` installs
# what stays on its host and pushes the rest, so no `copy` sits beside it.
if grep -rnE 'record_span\(|charge_comm\(|fn copy\(' crates src; then exit 1; fi
# The worker wire is spelled in proto.rs' declaration alone (its codec
# derived by dmac_cluster::codec, which the serve wire shares): no `"t"`
# key in the coordinator or the daemon, tests included — they build
# `Cmd` / `Reply` values and match on them. And a coordinator command is written in two places only:
# `post` (every exchange, a queued `free` at its head, each command beside
# its check) and `request` (membership and shutdown).
awk '/"t"/ { print FILENAME ":" FNR ": " $0; bad++ }
     FNR == 1 { tests = 0 } /#\[cfg\(test\)\]/ { tests = 1 }
     FILENAME ~ /socket\.rs$/ && !tests && /self\.send_cmd\(/ { send++ }
     END { if (bad || send != 2) {
               print "\"t\" in socket.rs + workerd.rs x" bad+0 ", self.send_cmd( in socket.rs x" send+0 " (want 0, 2)"
               exit 1 } }' crates/cluster/src/transport/socket.rs crates/cluster/src/transport/workerd.rs
# The serve wire is spelled once too: Request, Response and what they
# carry are declared in crates/serve/src/protocol.rs, and both directions
# derived from that declaration by the worker wire's machinery. So in
# crates/serve/src code (up to a file's first #[cfg(test)]) the tag key
# `"type"` is written once, in that declaration; no hand encoder of a
# reply sits beside it; and neither protocol.rs nor client.rs reads a key
# by hand. A parsed document is built and rendered in jsonin.rs alone.
if [ "$(find crates/serve/src -name '*.rs' -exec awk \
        '/#\[cfg\(test\)\]/ { nextfile }
         /"type"/ { print FILENAME }' {} +)" != crates/serve/src/protocol.rs ]; then
    echo '"type" must appear once in crates/serve/src code, in protocol.rs'
    exit 1
fi
if find crates/serve/src -name '*.rs' -exec awk \
    '/#\[cfg\(test\)\]/ { nextfile }
     /fn encode_(explain|lint|matrix|ok|error)\(/ ||
     (FILENAME ~ /\/(protocol|client)\.rs$/ && /\.get\("/) { print FILENAME ":" FNR ": " $0 }' {} + |
    grep .; then exit 1; fi
if grep -rn 'Json::Obj(' crates src | grep -v '^crates/cluster/src/jsonin\.rs:'; then exit 1; fi
# A moved byte is counted once, on the span of the primitive that moved
# it: `CommStats` is a fold over spans with no event list or recorder of
# its own, and nothing snapshots a second meter around a step.
if grep -rnE 'CommSnap|CommEvent' crates src; then exit 1; fi
awk '/#\[cfg\(test\)\]/ { exit }
     /Vec</ || /fn record/ { print FILENAME ":" FNR ": " $0; bad++ }
     END { if (bad) exit 1 }' crates/cluster/src/comm.rs
# And a frame's length prefix is decoded in one place (frame.rs), which
# both the one-shot readers and the incremental FrameReader go through.
if [ "$(find crates/cluster/src/transport -name '*.rs' -exec awk \
        '/#\[cfg\(test\)\]/ { nextfile }
         /u32::from_be_bytes/ { print FILENAME }' {} +)" != crates/cluster/src/transport/frame.rs ]; then
    echo "u32::from_be_bytes must appear once under crates/cluster/src/transport, in frame.rs"
    exit 1
fi
# A random source has one generator, which the oracle and every worker
# process call (dmac-matrix's random_cell), so a worker's tiles of it are
# the oracle's by construction.
if [ "$(grep -rlE 'fn random_cell\(' crates src)" != crates/matrix/src/rng.rs ] ||
    [ "$(grep -rcE 'fn random_cell\(' crates/matrix/src/rng.rs)" != 1 ]; then
    echo "fn random_cell( must be defined once under crates/ + src/, in crates/matrix/src/rng.rs"
    exit 1
fi
# One digest: every integrity check (frame trailers, shard seals, blob
# names, the disk tier's one frame around every file) runs wire::Digest,
# defined in transport/wire.rs alone. No byte-at-a-time FNV-1a hasher
# sits beside it; only dmac-lang's script fingerprint, which the serve
# protocol's golden_fnv pins, keeps the FNV prime.
if grep -rnE '0x0000_0100_0000_01b3|0x100000001b3|struct Fnv64' crates src |
    grep -v '^crates/lang/'; then exit 1; fi
if [ "$(grep -rlE 'struct Digest\b' crates src)" != crates/cluster/src/transport/wire.rs ]; then
    echo "struct Digest must be defined once under crates/ + src/, in crates/cluster/src/transport/wire.rs"
    exit 1
fi
# The seams stay their size. Generating took install's slot in the
# Transport trait instead of growing it: 14 methods. And the protocol is
# proto.rs' three enums, each variant one message: 12 commands (an RMM is
# a `fused` one), 11 replies, 3 peer messages.
awk '/^pub trait Transport/ { inside = "Transport" } /^    pub enum (Cmd|Reply|Peer) / { inside = $3 }
     inside && /^}|^    }/ { inside = "" }
     inside == "Transport" && /^    fn / { n["Transport"]++ }
     inside != "" && inside != "Transport" && /^        [A-Z][A-Za-z0-9]* = "/ { n[inside]++ }
     END { if (n["Transport"] != 14 || n["Cmd"] != 12 || n["Reply"] != 11 || n["Peer"] != 3) {
               print "Transport fns x" n["Transport"]+0 ", Cmd x" n["Cmd"]+0 ", Reply x" n["Reply"]+0 ", Peer x" n["Peer"]+0 " (want 14, 12, 11, 3)"
               exit 1 } }' crates/cluster/src/transport/mod.rs crates/cluster/src/transport/proto.rs

echo "==> cargo test (workspace)"
# Includes what used to be separate gates: the lint + plan-verifier sweep
# (tests/lint_sweep.rs), the real-cluster conformance and leak checks
# (transport_conformance, no_leaked_workers), the seeded fault schedule,
# the durability crash matrix, fusion / density / liveness equivalence.
cargo test --workspace -q

echo "==> ratio guards (release: dense x CSC vs CSC x dense, near-empty vs 5 % row fold, digest vs copy)"
# Both kernels do the same flops on the same 128x128 @ 5 % block, so the
# ratio of their rates does not depend on the host. Fails below 0.25: the
# strided loop the row-tiled kernel replaced sat at 0.09. Likewise a 1x128
# row folded through 128 tiles of 16 items against 128 tiles at 5 %: fails
# above 0.05, a pointer per empty column sat at 0.10. And digesting 8 MB,
# or sealing 8 MB of dense 128x128 tiles, against copying 8 MB: fails
# above 4x, FNV-1a's multiply per byte sat at ~17x.
cargo test --release -q --test kernel_bit_identity --test prop_frames -- --ignored --test-threads=1 keeps_pace

echo "==> cargo doc (no deps, deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> perf package tests (own workspace: must still compile against crates/)"
# perf/ is a workspace of its own, so the builds above never compile
# it; its unit tests and tests/quick.rs (every workload for a moment,
# incl. pagerank_socket on real workers with relay_bytes == 0) catch an
# API change in crates/ that would break the repo benchmark.
cargo test --offline --quiet --manifest-path perf/Cargo.toml

echo "==> dmac-serve smoke (server + 8 concurrent dmac-cli clients)"
# Starts dmac-served on a free port, then dmac-cli smoke runs 8 client
# threads submitting GNMF/PageRank scripts. The smoke exits non-zero if
# the plan-cache hit rate is below 50%, any result diverges bit-wise
# from a serial single-Session replay, or the drain is not clean.
PORT_FILE=$(mktemp)
rm -f "$PORT_FILE"
./target/release/dmac-served --port-file "$PORT_FILE" > /dev/null &
SERVED_PID=$!
# Whatever fails below, the server does not outlive this script.
trap 'kill "$SERVED_PID" 2>/dev/null || true; rm -f "$PORT_FILE"' EXIT
for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "dmac-served did not come up" >&2; exit 1; }
./target/release/dmac-cli smoke --addr "$(cat "$PORT_FILE")" --clients 8 --repeats 4 --min-hit-rate 0.5
# The smoke ends with a shutdown request; the server must drain and exit 0.
wait "$SERVED_PID"

# A step that rewrites a tracked file fails here instead of dirtying the tree.
[ "$(tracked_state)" = "$TRACKED_BEFORE" ] || {
    echo "a verify step modified tracked files:" >&2
    git diff --stat >&2
    exit 1
}

echo "verify: OK"
