#!/usr/bin/env bash
# Determinism lint: mechanically enforces that results never depend on
# wall-clock time, on hash-table iteration order, or on the instruction
# set the program is built for or runs on.
#
#   tools/check_determinism.sh   (scans src/ and every CMakeLists.txt,
#                                 exits 1 on findings)
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
# A third over src/**.{cpp,hpp} and every CMakeLists.txt:
#   3. Flags and calls that let rounding follow the instruction set
#      (-ffast-math, -Ofast, -ffp-contract=fast, -mfma, -march=,
#      std::fma) are banned everywhere, and target("...") /
#      target_clones("...") attributes and pragmas outside ISA_ALLOW.
#      The root CMakeLists.txt pins -ffp-contract=off instead.
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

# Instruction-set attributes whose code rounds exactly as the baseline
# build does.
# - src/la/matrix.cpp: the AVX2 copy of the agent's matrix-product row
#   kernel. target("avx2") enables no FMA and the file is built with
#   -ffp-contract=off, so it performs the baseline copy's multiplies and
#   adds in the same order; test_la's Matrix.BlockedKernelsMatchIkjLoopBitwise
#   holds both copies to the i-k-j loop bit for bit.
# - src/la/cholesky.cpp: the AVX2 copies of the GP's packed Cholesky
#   factorization and substitutions. Same argument: no FMA, no
#   contraction, each element's products subtracted in ascending column
#   order; test_opt's GpReference.PackedCholeskyMatchesRowByRowBitwise holds
#   the baseline and AVX2 copies to the row-by-row reference bit for bit.
ISA_ALLOW="
src/la/matrix.cpp
src/la/cholesky.cpp
"

grep_src() {
  grep -rnE -e "$1" src/ --include='*.cpp' --include='*.hpp'
}

# Every CMakeLists.txt outside build trees and hidden directories.
grep_cmake() {
  grep -rnE -e "$1" . --include=CMakeLists.txt \
    --exclude-dir='build*' --exclude-dir='.?*'
}

allowed() {
  # $1 = file, $2 = allowlist
  echo "$2" | grep -qx "$1"
}

STATUS=0

scan() {
  # $1 = egrep pattern, $2 = allowlist, $3 = human label, $4 = grep_src
  # or grep_cmake
  local pattern="$1" allowlist="$2" label="$3" grep_in="$4"
  local hits file
  hits="$("$grep_in" "$pattern" || true)"
  [ -z "$hits" ] && return
  while IFS= read -r line; do
    file="${line%%:*}"
    file="${file#./}"
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
     "$WALLCLOCK_ALLOW" "wall-clock source" grep_src
scan 'unordered_(map|set)' \
     "$UNORDERED_ALLOW" "unordered container" grep_src
ISA_FLAGS='-ffast-math|-Ofast|-ffp-contract=fast|-mfma|-march=|std::fma([^A-Za-z0-9_]|$)'
ISA_ATTRS='target(_clones)?[[:space:]]*\([[:space:]]*"'
for grep_in in grep_src grep_cmake; do
  scan "$ISA_FLAGS" "" "instruction-set-dependent rounding" "$grep_in"
  scan "$ISA_ATTRS" "$ISA_ALLOW" "instruction-set attribute" "$grep_in"
done

if [ $STATUS -eq 0 ]; then
  echo "check_determinism: OK (no wall-clock, unordered-container or instruction-set-dependent rounding outside the allowlists)"
else
  echo "check_determinism: FAILED — see findings above." >&2
  echo "If the use is genuinely lookup-only / perf-only / bit-identical, extend the" >&2
  echo "allowlist in tools/check_determinism.sh with a justification." >&2
fi
exit $STATUS
