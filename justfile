# Workspace task runner. `just check` is the gate a PR must pass.

# Build, test, lint (clippy + lsdf-lint) the whole workspace, build and
# test perfbench, which drives the facility's staged-put, restart and
# worker-pool API from outside the workspace, then run the worker-count
# witness.
check:
    cargo build --release
    cargo test -q
    cargo clippy --workspace --all-targets -- -D warnings
    cargo run --release -p lsdf-lint
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    cargo test -q --offline --manifest-path perfbench/Cargo.toml
    just witness

# Worker-count witness: the seeded chaos demo must write byte-identical
# stdout and artifacts (chrome trace, facility health, operator report,
# collapsed span profile) at 1, 4 and 8 workers. Copies land under
# target/witness/<workers>/.
witness:
    #!/usr/bin/env bash
    set -euo pipefail
    cargo build --release -p lsdf-examples --bin chaos_run
    files="chaos-trace.json facility-health.json operator-report.txt chaos-collapsed.txt"
    rm -rf target/witness
    for w in 1 4 8; do
        mkdir -p "target/witness/$w"
        LSDF_WORKERS=$w target/release/chaos_run 42 > "target/witness/$w/stdout.txt"
        for f in $files; do cp "target/$f" "target/witness/$w/"; done
    done
    for w in 4 8; do
        for f in stdout.txt $files; do cmp "target/witness/1/$f" "target/witness/$w/$f"; done
    done
    echo "witness: chaos_run 42 byte-identical at 1, 4 and 8 workers"

# Fast compile-only feedback.
build:
    cargo build --release

# Run the full test suite.
test:
    cargo test -q

# Lint with warnings promoted to errors.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Facility-invariant static analysis (determinism, metric names,
# panic-freedom ratchet, lock discipline, lock-order analysis).
lint:
    cargo run --release -p lsdf-lint

# Machine-readable lint report (stable ordering) at
# target/lint-report.json; CI uploads it as an artifact.
lint-json:
    mkdir -p target
    cargo run --release -p lsdf-lint -- --json > target/lint-report.json || true
    cat target/lint-report.json

# Regenerate lint-baseline.json from the current no_panic / raw_locks
# debt (the ratchet refuses to record larger counts than the file
# already holds).
lint-baseline:
    cargo run --release -p lsdf-lint -- --write-baseline

# Operator console: run the seeded chaos demo and print the facility
# status report it writes (tenant sparklines, breakers, durability lag,
# active alerts, slowest operations).
status:
    cargo run --release -p lsdf-examples --bin chaos_run -- 42 > /dev/null
    cat target/operator-report.txt

# Seeded chaos: the 10k-op fault-injection soak plus the demo run.
chaos:
    cargo test -q -p lsdf-integration --test chaos_soak
    cargo run --release -p lsdf-examples --bin chaos_run -- 42

# Full-scale tenant-isolation soak: thousands of tenants, one of them
# chaos-flooded, victims' p99 pinned (CI runs the reduced default).
soak-tenants:
    LSDF_SOAK_TENANTS=2000 cargo test -q --release -p lsdf-integration --test tenant_soak

# Restart-under-chaos soak: seeded kill-and-restart mid-ingest, replay-
# identical recovery, zero acked-write loss, worker-invariant registry.
# Writes the per-crash recovery reports to target/restart-soak-report.json.
soak-restart:
    LSDF_RESTART_REPORT=target/restart-soak-report.json cargo test -q --release -p lsdf-integration --test restart_soak

# Regenerate the paper-vs-measured experiment report (quick mode).
report:
    cargo run --release -p lsdf-bench --bin report -- --quick

# Re-measure the throughput baselines (BENCH_E1.json / BENCH_E3.json /
# BENCH_TRACE.json / BENCH_RECOVERY.json at the workspace root). Commit
# the refreshed files to move the baseline.
bench-snapshot:
    cargo run --release -p lsdf-bench --bin bench_snapshot

# CI smoke: quick-mode ingest throughput must stay within 2x of the
# committed BENCH_E1.json baseline, the WAL ingest tax within 1.5x, and
# a 100k-file recovery within 4x of the committed BENCH_RECOVERY.json
# replay rate (which must keep its million-file row).
bench-smoke:
    cargo run --release -p lsdf-bench --bin bench_snapshot -- --check

# The full facility-day example, registry snapshot included.
day:
    cargo run --release -p lsdf-examples --bin facility_day
