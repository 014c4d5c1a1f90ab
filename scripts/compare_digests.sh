#!/usr/bin/env bash
# Compare rtdb_verify's same-seed determinism digests against the committed
# golden values in scripts/golden_digests.txt. Any drift fails: the digests
# are the proof that a refactor was behavior-preserving.
#
# Usage: scripts/compare_digests.sh [path-to-rtdb_verify]
set -u

cd "$(dirname "$0")/.."
VERIFY=${1:-build/tools/rtdb_verify}

if [ ! -x "$VERIFY" ]; then
  echo "compare_digests: $VERIFY not found — build the rtdb_verify target first" >&2
  exit 2
fi

status=0

# check_group LABEL FILTER ARGS EXTRACT NOTE: the golden lines whose name
# matches the awk condition FILTER against `rtdb_verify ARGS` piped through
# the awk program EXTRACT; NOTE says what drift in this group means.
check_group() {
  local golden actual
  golden=$(grep -v '^#' scripts/golden_digests.txt |
    awk "NF && ($2) {print \$1, \$2}")
  # shellcheck disable=SC2086  # ARGS is a flag list, split on purpose
  actual=$("$VERIFY" $3 | awk "$4")
  if [ "$actual" != "$golden" ]; then
    echo "compare_digests: $1 digest drift detected" >&2
    diff <(printf '%s\n' "$golden") <(printf '%s\n' "$actual") >&2
    echo "(golden on the left, this build on the right; $5)" >&2
    status=1
  else
    echo "compare_digests: all $1 digests match golden"
  fi
}

# digest_of WORD SUFFIX: an extractor printing `<name>SUFFIX <digest>` for
# each line whose proof column is WORD.
digest_of() {
  printf '$3 == "%s" { for (i = 4; i <= NF; ++i)
    if ($i ~ /^digest=/) print $2 "%s", substr($i, 8) }' "$1" "$2"
}

# Fault-free lines carry no ':'; chaos lines are <prototype>:<schedule>.
check_group determinism '$1 !~ /:/' "" "$(digest_of determinism "")" \
  "update scripts/golden_digests.txt only for intended behavior changes"
check_group chaos '$1 ~ /:/ && $1 !~ /:(server-|telemetry$|perf$)/' --chaos \
  "$(digest_of chaos "")" \
  "chaos digests fold the fault/recovery counters — drift means injection or recovery changed"
check_group server-chaos '$1 ~ /:server-/' --chaos-server "$(digest_of chaos "")" \
  "server-chaos digests cover the crash/epoch-recovery/standby paths"
# Telemetry drift means the trace itself changed — a moved, added or dropped
# event — even when the outcome digests above are untouched.
check_group telemetry '$1 ~ /:telemetry$/' "--mode telemetry" \
  "$(digest_of telemetry :telemetry)" \
  "telemetry digests fold every span, typed event and gauge sample"
# Perf drift means an instrumented path ran a different number of times.
check_group perf '$1 ~ /:perf$/' "--mode perf" "$(digest_of perf :perf)" \
  "perf digests fold every perf counter — drift means the counter catalog changed, or the build has -DRTDB_PERF_COUNTERS=OFF"
exit $status
