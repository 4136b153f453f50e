#!/usr/bin/env sh
# Local mirror of the CI pipeline (.github/workflows/ci.yml).
# Runs every gate in order and stops at the first failure.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (debug-invariants) -- -D warnings"
cargo clippy --workspace --all-targets --features rbcast/debug-invariants -- -D warnings

echo "==> cargo xtask audit --format json (machine-readable gate)"
audit_json=target/audit_report.json
cargo xtask audit --format json > "$audit_json" \
    || { cat "$audit_json"; echo "audit: findings (see JSON above)"; exit 1; }
# Validate the SARIF-lite shape: schema tag, clean flag, findings array.
grep -q '"schema":"rbcast-audit/1"' "$audit_json" \
    || { cat "$audit_json"; echo "audit: JSON output missing schema tag"; exit 1; }
grep -q '"clean":true' "$audit_json" \
    || { cat "$audit_json"; echo "audit: JSON output not clean"; exit 1; }
grep -q '"findings":\[' "$audit_json" \
    || { cat "$audit_json"; echo "audit: JSON output missing findings array"; exit 1; }
rm -f "$audit_json"

echo "==> cargo xtask audit --rule stale-allow (suppression lifecycle gate)"
cargo xtask audit --rule stale-allow
cargo xtask audit --rule unknown-allow

echo "==> cargo xtask audit --self-test"
cargo xtask audit --self-test

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> benchmark build + self-check (its adapters compile against Process/Ctx/Network)"
# benchmark/ is a package of its own, outside the workspace, so the
# workspace build above never compiles it. The self-check (~5 s) shows
# every output check passing on a correct run and firing on a wrong one.
cargo build --release --manifest-path benchmark/Cargo.toml
cargo run -q --release --manifest-path benchmark/Cargo.toml -- --self-check

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> cargo test --features debug-invariants"
cargo test -q --features debug-invariants

echo "==> engine determinism gate (1/2/8 threads, debug-invariants replay)"
cargo test -q -p rbcast-core --test determinism --features debug-invariants

echo "==> thresh_byz smoke (tiny grid through the parallel engine)"
cargo run -q -p rbcast-bench --bin thresh_byz -- --smoke

echo "==> chaos smoke (injected panics/stalls quarantined, journal well-formed)"
# Seed 4 deterministically kills tasks in both thresh_byz sweeps (the
# chaos draw is a pure function of (seed, task, attempt), so this holds
# at every thread count). The bin must still exit 0 — failures are
# quarantined, never fatal — and the checkpoint journal must hold one
# well-formed line per task, including the failed ones.
rm -rf results/journal
chaos_out=target/chaos_smoke.out
RBCAST_CHAOS="panic:0.05,stall:0.02,seed=4" RBCAST_RETRIES=1 \
    cargo run -q -p rbcast-bench --bin thresh_byz -- --smoke > "$chaos_out" 2>&1 \
    || { cat "$chaos_out"; echo "chaos smoke: thresh_byz failed fatally"; exit 1; }
grep -q "^quarantine " "$chaos_out" \
    || { cat "$chaos_out"; echo "chaos smoke: expected quarantined tasks"; exit 1; }
journal=results/journal/thresh_byz_achievability.jsonl
test -s "$journal" \
    || { echo "chaos smoke: missing checkpoint journal $journal"; exit 1; }
grep -q '"status":"failed"' "$journal" \
    || { cat "$journal"; echo "chaos smoke: no failed entry journalled"; exit 1; }
# Every line is a task entry, except an optional leading sweep-spec
# fingerprint header (written by `rbcast sweep`, checked on --resume).
if grep -v '^{"task":[0-9][0-9]*,"status":"\(ok\|failed\)","attempts":[0-9][0-9]*,' "$journal" \
    | grep -v '^{"fingerprint":"0x[0-9a-f]*","tasks":[0-9][0-9]*}$' | grep .; then
    echo "chaos smoke: malformed journal line(s) above"; exit 1
fi
rm -rf results/journal
echo "chaos smoke passed"

echo "==> trace smoke (rbcast run --trace emits well-formed JSONL)"
trace_out=target/trace_smoke.jsonl
cargo run -q --bin rbcast -- run --protocol cpa --r 1 --t 2 --trace "$trace_out" > /dev/null
test -s "$trace_out" || { echo "trace smoke: empty trace"; exit 1; }
if grep -v '^{"ev":"[a-z_]*","round":[0-9][0-9]*[,}]' "$trace_out" | grep -q .; then
    echo "trace smoke: malformed JSONL line(s)"; exit 1
fi
rm -f "$trace_out"
echo "trace smoke passed"

echo "==> cluster chaos smoke (3x3 UDP processes, burst loss, kill+restart)"
# Nine `rbcast serve` OS processes on loopback UDP ports, every link
# behind the seeded Gilbert-Elliott chaos shim, node 4 killed mid-run
# and restarted from its JSONL journal. The run must commit exactly
# what the sim oracle commits (parity: MATCH => exit 0) and the victim
# must have resumed from its journal (two boot records = epoch bump).
cluster_dir=target/cluster_smoke
cluster_out=target/cluster_smoke.out
rm -rf "$cluster_dir"
cargo run -q --release --bin rbcast -- cluster \
    --width 3 --height 3 --instances 4 --rounds 16 \
    --base-port 47500 --chaos-seed 3405691582 --kill 4 --dir "$cluster_dir" \
    > "$cluster_out" 2>&1 \
    || { cat "$cluster_out"; echo "cluster smoke: run failed"; exit 1; }
grep -q "parity: MATCH" "$cluster_out" \
    || { cat "$cluster_out"; echo "cluster smoke: digest mismatch vs sim oracle"; exit 1; }
test "$(grep -c '"boot"' "$cluster_dir/node4.jsonl")" -eq 2 \
    || { echo "cluster smoke: victim did not resume from its journal"; exit 1; }
rm -rf "$cluster_dir" "$cluster_out"
echo "cluster chaos smoke passed"

echo "==> attack search gate (pinned seed beats the hand-built library; replay is exact)"
# The adversary search must earn its keep: at the pinned seed it has to
# find a placement strictly worse (for the protocol) than every
# hand-built strategy on at least one (r, t) cell — otherwise the
# annealer has regressed to a no-op and `rbcast attack` is decoration.
attack_out=target/attack_gate.out
cargo run -q --release --bin rbcast -- attack --seed 10976964 --steps 60 --r 1 --gate \
    > "$attack_out" 2>&1 \
    || { cat "$attack_out"; echo "attack gate: search no longer beats the library"; exit 1; }
grep -q "gate: PASS" "$attack_out" \
    || { cat "$attack_out"; echo "attack gate: missing PASS marker"; exit 1; }
# Thread-count invariance: every random draw is a pure function of
# (seed, step), so 1 and 2 workers must produce byte-identical reports.
cargo run -q --release --bin rbcast -- attack --seed 10976964 --steps 60 --r 1 --threads 1 \
    > target/attack_t1.out 2>&1
cargo run -q --release --bin rbcast -- attack --seed 10976964 --steps 60 --r 1 --threads 2 \
    > target/attack_t2.out 2>&1
cmp -s target/attack_t1.out target/attack_t2.out \
    || { diff target/attack_t1.out target/attack_t2.out; \
         echo "attack gate: thread count changed the search result"; exit 1; }
# Checkpoint resume: truncate the journal mid-search, resume at a
# different thread count, and the report must still be byte-identical
# to the straight-through run.
attack_journal=target/attack_gate.jsonl
rm -f "$attack_journal"
cargo run -q --release --bin rbcast -- attack --seed 10976964 --steps 60 --r 1 \
    --checkpoint-every 8 --journal "$attack_journal" > target/attack_full.out 2>&1
test -s "$attack_journal" || { echo "attack gate: no checkpoint journal written"; exit 1; }
head -n 3 "$attack_journal" > "$attack_journal.cut"
mv "$attack_journal.cut" "$attack_journal"
cargo run -q --release --bin rbcast -- attack --seed 10976964 --steps 60 --r 1 \
    --checkpoint-every 8 --resume "$attack_journal" --threads 2 \
    > target/attack_resumed.out 2>&1
cmp -s target/attack_full.out target/attack_resumed.out \
    || { diff target/attack_full.out target/attack_resumed.out; \
         echo "attack gate: resume diverged from the straight-through run"; exit 1; }
rm -f "$attack_out" target/attack_t1.out target/attack_t2.out \
    target/attack_full.out target/attack_resumed.out "$attack_journal"
echo "attack search gate passed"

echo "==> attack corpus smoke (worst-found placements verify by independent replay)"
cargo run -q --release -p rbcast-bench --bin attack_corpus -- --smoke

echo "==> sweep_engine smoke (multi-thread throughput >= 85% of serial)"
cargo bench -q -p rbcast-bench --bench sweep_engine -- --smoke

echo "==> scale smoke (sparse engine matches the dense oracle at 10^4 nodes)"
# Release build: the smoke gate carries a wall budget, and a debug bin
# is opt-0 here ([profile.dev] is not overridden), an order of
# magnitude off the numbers the gate is calibrated against.
cargo run -q --release -p rbcast-bench --bin scale_bench -- --smoke

echo "==> BENCH_scale.json shape (checked-in scale baseline is current)"
grep -q '"schema": "rbcast-bench-scale/v2"' BENCH_scale.json \
    || { echo "BENCH_scale.json: missing/wrong schema tag"; exit 1; }
grep -q '"nodes": 1000000' BENCH_scale.json \
    || { echo "BENCH_scale.json: missing the 10^6-node cell"; exit 1; }
grep -q '"timings": {' BENCH_scale.json \
    || { echo "BENCH_scale.json: missing the obs timings block"; exit 1; }
grep -q '"peak_rss_kb"' BENCH_scale.json \
    || { echo "BENCH_scale.json: missing the v2 peak-RSS column"; exit 1; }

echo "CI: all gates passed"
