#!/usr/bin/env bash
# Repo lint + test gate. Run before every push; the GitHub Actions
# workflow (.github/workflows/ci.yml) runs this same script verbatim.
# Formatting style lives in rustfmt.toml; lint levels live in the
# [workspace.lints] table of the root Cargo.toml.
#
# Opt-in extras:
#   CI_BENCH=1  also run every deterministic bench suite (cca-bench) and
#               fail on malformed output or byte drift from its committed
#               BENCH_PR*.json baseline. Suites live in the BENCHES table
#               below: one "subcommand:baseline" line per suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --examples"
cargo build --examples

echo "== cargo test (every workspace crate)"
cargo test --workspace -q

echo "== perfbench self-tests (builds the measured benchmark against the workspace)"
cargo test --offline -q --manifest-path perfbench/Cargo.toml

echo "== determinism lint (no hash-ordered iteration in hot paths)"
./scripts/lint_determinism.sh

echo "== assembly lint (cca-analyze over the three app scripts)"
cargo run -q --example cca_lint -- --apps

echo "== comm-plan lint (static schedule verification, all shipped configs)"
cargo run -q --example cca_lint -- --comm

echo "== serve smoke (demo request stream through the job server)"
cargo run -q --example cca_serve -- --demo > /dev/null

echo "== fleet smoke (multi-tenant loadgen across 2 serve shards)"
cargo run -q --example cca_serve -- --fleet > /dev/null

echo "== cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

if [[ "${CI_BENCH:-0}" == "1" ]]; then
  # subcommand:baseline pairs; the check twin is "<subcommand>-check"
  # ("check" for the legacy smoke suite). Each suite regenerates into
  # target/, self-validates, and must match its committed baseline
  # byte-for-byte.
  BENCHES=(
    "smoke:BENCH_PR2.json"
    "serve:BENCH_PR3.json"
    "hotpath:BENCH_PR4.json"
    "scaling:BENCH_PR5.json"
    "samr:BENCH_PR7.json"
    "ckpt:BENCH_PR8.json"
    "kernels:BENCH_PR9.json"
    "fleet:BENCH_PR10.json"
  )
  for entry in "${BENCHES[@]}"; do
    sub="${entry%%:*}"
    baseline="${entry#*:}"
    check="${sub}-check"
    [[ "$sub" == "smoke" ]] && check="check"
    echo "== bench ${sub} (CI_BENCH=1)"
    cargo run -q -p cca-bench --bin cca-bench -- "$sub" "target/$baseline"
    cargo run -q -p cca-bench --bin cca-bench -- "$check" "target/$baseline"
    echo "== bench ${sub}: compare against committed baseline"
    diff -u "$baseline" "target/$baseline" \
      || { echo "$baseline drifted; regenerate with: cargo run -p cca-bench --bin cca-bench -- $sub"; exit 1; }
  done
fi

echo "ci: all gates passed"
