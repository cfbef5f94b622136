#!/usr/bin/env bash
# Repo CI: formatting, workspace-wide lints, and the tier-1 verify
# (build + root test suite) followed by the full workspace suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check (workspace)"
cargo fmt --all --check

# Architectural lint: every blocking protocol must go through the
# sia-sched SyncOps shim so the model checker can explore it. Raw
# `thread::spawn` / `Mutex::new` / `Condvar::new` / `RwLock::new` in
# production sources is a gate failure unless the line carries a
# `concurrency-allow: <reason>` marker (telemetry's internal locks, the
# serve accept loop, test-only real threads, data-partition locks).
# sia-sched itself hosts the real primitives behind the shim and is
# exempt wholesale; integration tests under tests/ drive real threads
# by design.
echo "==> architectural lint: raw threading primitives"
# The marker may sit on the matching line or the next one (rustfmt moves
# trailing comments into multi-line closures).
viol=""
while IFS=: read -r file line text; do
    if ! sed -n "${line}p;$((line + 1))p" "$file" | grep -q 'concurrency-allow'; then
        viol="${viol}${file}:${line}:${text}"$'\n'
    fi
done < <(grep -rn --include='*.rs' -E 'thread::spawn|Mutex::new|Condvar::new|RwLock::new' \
    crates/ src/ | grep -v '^crates/sched/')
if [ -n "$viol" ]; then
    echo "raw threading primitive outside the SyncOps shim (route it" >&2
    echo "through sia-sched, or justify with // concurrency-allow: ...):" >&2
    echo "$viol" >&2
    exit 1
fi

echo "==> cargo clippy -D warnings (workspace)"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p sia-telemetry --no-default-features --all-targets -- -D warnings
# The benchmark is a workspace of its own, so the lint above does not reach
# it; a library API change that leaves it warning fails here.
cargo clippy --manifest-path e2ebench/Cargo.toml --all-targets -- -D warnings

# The end-to-end benchmark's own tests, right after its lint and before
# anything slower (e2ebench/ is a workspace of its own, so the workspace
# suite below does not reach it). Its reference-fingerprint test hashes
# the integer logits on a fixed 512-image set: the one check a datapath
# change that is fast but wrong, yet agrees with itself, cannot pass. It
# also breaks as soon as the Engine or engine-factory API drifts from
# what the benchmark builds against.
echo "==> e2ebench tests (release)"
cargo test --release -q --manifest-path e2ebench/Cargo.toml

# Every intra-doc link must resolve: a link into a deleted or private item
# fails here instead of rendering as dead text.
echo "==> rustdoc -D warnings (workspace)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: release build + root tests"
cargo build --release
cargo test -q

# The committed tables are the training-free table binaries' stdout, byte
# for byte: a change to the cycle, resource or power model that moves a
# number fails here until the same change regenerates the file
# (cargo run --release -p sia-bench --bin <name> > results/<name>.txt).
echo "==> committed tables match the table binaries"
cargo build --release -q -p sia-bench --bins
for table in table1_layer_latency table2_kernel_sweep table3_resources \
    table4_comparison asic_projection ablation_event_driven ablation_pe_array; do
    diff -u "results/$table.txt" <(cargo run --release -q -p sia-bench --bin "$table")
done

# Schedule exploration of the pool/serve concurrency protocols: the
# production code (generic over SyncOps, instantiated at ModelSync) runs
# under exhaustive bounded-preemption DFS plus a seeded random walk, and
# the mutant self-tests prove each bug class is still caught with a
# replayable trace. Also part of `cargo test -q` above; the named run
# keeps the gate visible and fails fast with the full schedule trace.
echo "==> sia-sched: schedule exploration of the concurrency protocols"
cargo test -q -p sia-sched
cargo test -q --test sched_protocols

# Debug-profile pass over the integer datapath crates with overflow checks
# forced on: any wrap in the fixed-point/accumulator paths aborts here
# instead of wrapping silently in release.
echo "==> debug-profile datapath tests with overflow checks on"
RUSTFLAGS="-C overflow-checks=on" \
    cargo test -q -p sia-fixed -p sia-snn -p sia-accel -p sia-check -p sia-repro

# Smoke benches, gated against the committed baselines. Each family first
# asserts kernel bit-exactness (sparse ≡ dense conv, blocked ≡ reference
# GEMM) before timing anything, then compares the production kernel's
# min-of-iters against results/baselines/<family>-smoke.json. The slack is
# deliberately generous (noise-aware threshold + 400% on a shared 1-core
# runner): this catches order-of-magnitude regressions — an accidentally
# disabled skip path, a dropped thread pool — not single-digit drift.
# Refresh after an intentional change: sia bench <family> --smoke --update-baseline
# (a smoke run writes the baseline and any --out file, never the committed
# full-run BENCH_<family>.json).
for family in conv gemm eval serve; do
    echo "==> $family bench (smoke, baseline-gated)"
    cargo run --release -p sia-cli -- bench "$family" --smoke \
        --check-baseline --rel-slack 400 \
        --out "/tmp/sia_bench_${family}_smoke.json"
done

# Data-parallel trainer smoke at --threads 4: drives the shared pool,
# gradient sharding and BN-stat replay end-to-end through the CLI (result
# determinism vs thread count is covered by the sia-nn test suite).
echo "==> train smoke with --threads 4"
cargo run --release -p sia-cli -- train --out /tmp/sia_ci_train.img \
    --width 2 --size 8 --epochs 1 --threads 4 --micro-batch 8

# Adaptive early-exit gates. The proptest suite proves the two deployment
# contracts (unreachable thresholds are bit-identical to fixed-T on all
# three backends; pool exits are thread-count independent), then a
# margin-policy smoke eval on the train-smoke image enforces a hard
# accuracy ceiling versus its own fixed-T reference run (--max-acc-drop
# re-evaluates with ExitPolicy::Fixed and fails on a larger drop).
echo "==> early exit: proptest contracts + accuracy-drop ceiling"
cargo test -q --test early_exit
# (margin 2 on the 1-epoch smoke model: ~1/3 of images exit early while
# staying inside the ceiling; looser thresholds exit near-random logits)
cargo run --release -p sia-cli -- eval /tmp/sia_ci_train.img --smoke \
    --timesteps 4 --policy margin --exit-margin 2 --max-acc-drop 0.05

# Live serving gate: boot `sia serve` on an ephemeral port with the image
# the train smoke just produced, drive it with the `bench serve` load
# generator (which re-verifies every response bit-for-bit against a local
# threads=1 serving unit on the same artifact), post /shutdown, and require
# the server process to exit cleanly. Latency is gated against the same
# committed serve-smoke baseline as the self-hosted run above.
echo "==> serve smoke: live server + load generator"
SERVE_PORT_FILE=/tmp/sia_ci_serve_port
rm -f "$SERVE_PORT_FILE"
cargo run --release -p sia-cli -- serve /tmp/sia_ci_train.img \
    --port 0 --port-file "$SERVE_PORT_FILE" --timesteps 2 --threads 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SERVE_PORT_FILE" ] && break
    sleep 0.1
done
if ! [ -s "$SERVE_PORT_FILE" ]; then
    echo "serve never wrote its port file" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
# --allow-missing: url mode drives the one live server, so the baseline's
# self-hosted early-exit cases (c{n}@margin) cannot run here.
cargo run --release -p sia-cli -- bench serve --smoke \
    --url "127.0.0.1:$(cat "$SERVE_PORT_FILE")" --model /tmp/sia_ci_train.img \
    --shutdown --check-baseline --rel-slack 400 --allow-missing \
    --out /tmp/sia_bench_serve_live.json
wait "$SERVE_PID"

echo "==> sia check gates on the shipped model configs"
cargo run --release -p sia-cli -- check --model resnet18
cargo run --release -p sia-cli -- check --model vgg11

echo "==> telemetry compiled out still passes"
cargo test -q --no-default-features
# The engine crates on their own: the root package's tests above do not
# run their unit tests, and its lint pass builds them with telemetry on.
cargo test -q -p sia-snn -p sia-accel --no-default-features
cargo clippy -p sia-snn -p sia-accel --no-default-features --all-targets -- -D warnings

echo "==> full workspace suite"
cargo test -q --workspace

echo "CI OK"
