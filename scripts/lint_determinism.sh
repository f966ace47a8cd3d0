#!/usr/bin/env bash
# Determinism lint.
#
# Distributed results must be bit-reproducible: the comm-plan conformance
# auditor and the pinned scaling/SAMR checksums both assume every rank
# issues the same operation sequence on every run. Iterating a
# HashMap/HashSet (randomized order since the default hasher is seeded
# per-process) in a hot path silently breaks that, so source in the
# comm/mesh/apps/serve/analyze crates must use BTreeMap/BTreeSet — or
# sort before iterating. The distributed-hierarchy layer (mesh/src/dist.rs,
# analyze/src/distplan.rs) is the most sensitive: its exchange manifests
# and regrid plans must be *identical on every rank*, so any hash-ordered
# iteration there is a cross-rank divergence, not just run-to-run noise.
# The kernel crates (hydro/components/chem/solvers) are covered too:
# their sweeps promise bit-identical results at any executor worker
# count, which a hash-ordered traversal would break the same way.
#
# Files listed in ALLOW may use hash containers because their results are
# provably order-insensitive (membership tests, min/max folds, counting);
# add a file here only with a justification comment.
set -euo pipefail
cd "$(dirname "$0")/.."

ALLOW=(
  # Flag sets feed bounding-box/histogram folds only; clustering output
  # does not depend on iteration order.
  "crates/mesh/src/cluster.rs"
  # Buffered-flag set is consumed by berger_rigoutsos, which is
  # order-insensitive (see cluster.rs).
  "crates/mesh/src/regrid.rs"
)

fail=0
while IFS= read -r hit; do
  file=${hit%%:*}
  allowed=0
  for a in "${ALLOW[@]}"; do
    if [[ "$file" == "$a" ]]; then
      allowed=1
      break
    fi
  done
  if [[ "$allowed" == 0 ]]; then
    echo "determinism lint: hash-ordered container in hot path: $hit" >&2
    fail=1
  fi
done < <(grep -rn --include='*.rs' -E 'Hash(Map|Set)' \
  crates/comm/src crates/mesh/src crates/apps/src crates/serve/src \
  crates/analyze/src crates/ckpt/src \
  crates/hydro/src crates/components/src crates/chem/src \
  crates/solvers/src || true)

if [[ "$fail" != 0 ]]; then
  echo "determinism lint: use BTreeMap/BTreeSet (or sort before" >&2
  echo "iterating), or add an allowlist entry with a justification" >&2
  echo "comment in scripts/lint_determinism.sh" >&2
  exit 1
fi

# The fleet scheduler (crates/serve/src/fleet.rs and friends) pins every
# latency percentile, steal decision, and migration byte-for-byte in
# BENCH_PR10.json. That only holds if the scheduling layer never reads a
# wall clock or process-seeded entropy — virtual ticks and the stream's
# own seeded rng are the only time/randomness sources allowed.
if grep -rn --include='*.rs' -E 'Instant::now|SystemTime|wall_clock|thread_rng|from_entropy' \
  crates/serve/src crates/ckpt/src; then
  echo "determinism lint: wall clock or process-seeded rng in the" >&2
  echo "scheduling layer; use the virtual tick clock / seeded streams" >&2
  exit 1
fi

echo "determinism lint: clean"
