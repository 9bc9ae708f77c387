#!/usr/bin/env bash
# Soak smoke for sasynthd: ~60 seconds of mixed TCP traffic — cacheable
# requests, cold requests on tight deadlines, dead-on-arrival requests,
# health/ping probes — while fault storms (stalls, short reads, admission
# errors, disk-store failures) are armed, finished by a SIGTERM.
#
# Pass criteria:
#   * the daemon never crashes and exits 0 after a clean drain
#     ("drained, exiting" on stderr);
#   * ok verdicts, mid-DSE timeouts and admission-time timeouts were each
#     actually served;
#   * the `requests` counter sampled via `health` is monotonic;
#   * no sanitizer report in either log (the CI sanitize jobs run this
#     script too).
#
# Usage: scripts/soak_smoke.sh [path/to/sasynthd]
#   SOAK_SECONDS overrides the traffic duration (default 60).
set -u

BIN=${1:-build/tools/sasynthd}
DURATION=${SOAK_SECONDS:-60}

fail() { echo "soak_smoke: FAIL: $*" >&2; exit 1; }

[ -x "$BIN" ] || fail "daemon binary not found: $BIN"

workdir=$(mktemp -d)
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill -KILL "$daemon_pid" 2>/dev/null
  rm -rf "$workdir"
}
trap cleanup EXIT

# The storm: a handful of stalled reads (each ends one session via the I/O
# timeout), a long benign short-read/short-write storm, a burst of admission
# faults (retry verdicts), and failing disk persists (memory tier carries on).
export SASYNTH_FAULTS='tcp.read:stall@25x15,tcp.write:short_read@3x400,sched.admit:error@60x5,cache.store:enospc@2x10'

"$BIN" --port 0 --cache "$workdir/cache" --jobs 4 \
  --default-deadline 5000 --io-timeout 1000 --drain-timeout 8000 \
  --metrics-out "$workdir/metrics.prom" \
  > "$workdir/stdout.log" 2> "$workdir/stderr.log" &
daemon_pid=$!

# --port 0 prints the chosen port on stdout.
port=""
for _ in $(seq 1 100); do
  port=$(sed -n 's/^sasynthd listening on 127\.0\.0\.1:\([0-9][0-9]*\)$/\1/p' \
         "$workdir/stdout.log" | head -n 1)
  [ -n "$port" ] && break
  kill -0 "$daemon_pid" 2>/dev/null || break
  sleep 0.1
done
[ -n "$port" ] || { cat "$workdir/stderr.log" >&2; fail "daemon never reported its port"; }
echo "soak_smoke: daemon pid=$daemon_pid port=$port, running ${DURATION}s of traffic"

# One fresh connection per call; reads until $2 end-terminated blocks arrived.
# Sessions killed mid-flight by the armed stalls make read time out or the
# connection drop — both are expected, the caller just gets a short answer.
talk() {
  local script=$1 blocks=$2 out="" line seen=0
  exec 3<>"/dev/tcp/127.0.0.1/$port" 2>/dev/null || return 1
  printf '%b' "$script" >&3 2>/dev/null
  while [ "$seen" -lt "$blocks" ] && IFS= read -r -t 10 line <&3; do
    out+=$line$'\n'
    [ "$line" = "end" ] && seen=$((seen + 1))
  done
  exec 3<&- 3>&-
  printf '%s' "$out"
}

req_tiny='sasynth-request v1\nlayer 16,16,8,8,3\ndevice tiny\noption min_util 0.5\nend\n'
req_tiny2='sasynth-request v1\nlayer 8,16,4,4,3\ndevice tiny\noption min_util 0.5\nend\n'
# Cold AlexNet-sized layer on a budget far below its DSE time: mid-DSE
# timeout. The exhaustive all-integer sweep takes seconds (the pruned sweep
# a few ms), and a timeout is never cached, so every repeat runs a cold DSE
# into its deadline.
req_tight='sasynth-request v1\nlayer 48,128,13,13,3\noption bound_prune 0\noption pow2_middle 0\ndeadline_ms 100\nend\n'
# Dead on arrival: shed at admission.
req_doa='sasynth-request v1\nlayer 16,16,8,8,3\ndevice tiny\ndeadline_ms 0\nend\n'

ok_seen=0
timeout_dse_seen=0
timeout_admission_seen=0
health_samples="$workdir/health_requests.txt"
: > "$health_samples"

end_at=$(( $(date +%s) + DURATION ))
i=0
while [ "$(date +%s)" -lt "$end_at" ]; do
  kill -0 "$daemon_pid" 2>/dev/null || fail "daemon died mid-soak (see $workdir/stderr.log)"
  i=$((i + 1))
  case $((i % 7)) in
    0) talk 'ping\n' 1 >/dev/null ;;
    1|4) resp=$(talk "$req_tiny" 1)
         case $resp in *"sasynth-response v1 ok"*) ok_seen=$((ok_seen + 1));; esac ;;
    2) resp=$(talk "$req_tight" 1)
       case $resp in *"timeout deadline exceeded during design space exploration"*) timeout_dse_seen=$((timeout_dse_seen + 1));; esac ;;
    3) resp=$(talk "$req_doa" 1)
       case $resp in *"timeout deadline expired before admission"*) timeout_admission_seen=$((timeout_admission_seen + 1));; esac ;;
    5) resp=$(talk "$req_tiny2" 1)
       case $resp in *"sasynth-response v1 ok"*) ok_seen=$((ok_seen + 1));; esac ;;
    6) resp=$(talk 'health\n' 1)
       case $resp in
         *"sasynth-health v1"*)
           printf '%s\n' "$resp" | sed -n 's/^requests \([0-9][0-9]*\)$/\1/p' >> "$health_samples" ;;
       esac ;;
  esac
done
echo "soak_smoke: traffic done after $i connections (ok=$ok_seen" \
  "timeout_dse=$timeout_dse_seen timeout_admission=$timeout_admission_seen)"

[ "$ok_seen" -ge 1 ] || fail "no ok verdict was ever served"
[ "$timeout_dse_seen" -ge 1 ] || fail "no mid-DSE timeout was ever served"
[ "$timeout_admission_seen" -ge 1 ] || fail "no admission-time timeout was ever served"
[ -s "$health_samples" ] || fail "no health sample ever answered"

# Counters are monotonic: the requests series sampled via health never dips.
sort -n -C "$health_samples" || fail "health 'requests' counter went backwards: $(tr '\n' ' ' < "$health_samples")"

# Finish line: SIGTERM must drain and exit 0.
kill -TERM "$daemon_pid"
status=0
wait "$daemon_pid" || status=$?
daemon_pid=""
[ "$status" -eq 0 ] || { cat "$workdir/stderr.log" >&2; fail "daemon exited $status after SIGTERM"; }
grep -q 'received SIGTERM, draining' "$workdir/stderr.log" \
  || fail "drain start message missing from stderr"
grep -q 'drained, exiting' "$workdir/stderr.log" \
  || fail "clean-drain message missing from stderr"
[ -s "$workdir/metrics.prom" ] || fail "--metrics-out dump missing after drain"

# No crash or sanitizer report anywhere.
if grep -E -q 'AddressSanitizer|ThreadSanitizer|UndefinedBehaviorSanitizer|runtime error:|Segmentation fault' \
     "$workdir/stdout.log" "$workdir/stderr.log"; then
  cat "$workdir/stderr.log" >&2
  fail "sanitizer/crash report in the daemon logs"
fi

echo "soak_smoke: PASS"
