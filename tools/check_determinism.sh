#!/usr/bin/env bash
# Determinism lint: mechanically enforces the invariant PRs 3-4
# established — results never depend on wall-clock time or on hash-table
# iteration order.
#
#   tools/check_determinism.sh            (scans src/, exits 1 on findings)
#
# Two checks over src/**.{cpp,hpp}:
#   1. Wall-clock sources (std::chrono::steady_clock / system_clock,
#      time()-family calls) are banned outside WALLCLOCK_ALLOW. The
#      allowlisted simulator files use steady_clock exclusively for the
#      perf-attribution counters (PerfStats) that never feed results.
#   2. std::unordered_map / std::unordered_set are banned outside
#      UNORDERED_ALLOW. Each allowlisted file has been reviewed: the
#      containers are used for keyed lookup only; anything ordered that
#      leaves the file (names, caches, report lines) is produced from
#      vectors/sorted copies, never from hash iteration order.
#
# Adding a file to an allowlist is a reviewable act: append it here WITH a
# justification comment in the same commit.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT" || exit 2

# steady_clock here is perf attribution only (sim::PerfStats timers).
WALLCLOCK_ALLOW="
src/sim/ac.cpp
src/sim/dc.cpp
src/sim/noise.cpp
src/sim/tran.cpp
"

# Keyed lookup only; iteration never ordered into results.
UNORDERED_ALLOW="
src/circuit/netlist.hpp
src/env/eval_service.hpp
src/env/eval_service.cpp
src/rl/run_loop.cpp
"

allowed() {
  # $1 = file, $2 = allowlist
  echo "$2" | grep -qx "$1"
}

STATUS=0

scan() {
  # $1 = egrep pattern, $2 = allowlist, $3 = human label
  local pattern="$1" allowlist="$2" label="$3"
  local hits file
  hits="$(grep -rnE "$pattern" src/ --include='*.cpp' --include='*.hpp' || true)"
  [ -z "$hits" ] && return
  while IFS= read -r line; do
    file="${line%%:*}"
    if ! allowed "$file" "$allowlist"; then
      echo "determinism: $label outside allowlist:"
      echo "  $line"
      STATUS=1
    fi
  done <<EOF
$hits
EOF
}

scan 'steady_clock|system_clock|[^A-Za-z0-9_:.>]time\(' \
     "$WALLCLOCK_ALLOW" "wall-clock source"
scan 'unordered_(map|set)' \
     "$UNORDERED_ALLOW" "unordered container"

if [ $STATUS -eq 0 ]; then
  echo "check_determinism: OK (no wall-clock or unordered-container use outside the allowlists)"
else
  echo "check_determinism: FAILED — see findings above." >&2
  echo "If the use is genuinely lookup-only / perf-only, extend the" >&2
  echo "allowlist in tools/check_determinism.sh with a justification." >&2
fi
exit $STATUS
