#!/usr/bin/env bash
# chaos-smoke: boots planarsid under the deterministic fault-injection
# harness (internal/fault, armed with -fault) and proves the resilience
# layer end to end (used by `make chaos-smoke` and CI; RACE=1 builds the
# daemon with -race):
#
#   - a query panic at the index boundary is answered 500 with an opaque
#     incident id while the full stack lands in the log, daemon stays up
#   - two consecutive panics open the (grid, decide) circuit breaker:
#     503 + Retry-After until the cooldown elapses
#   - the half-open probe panics *inside* the cover build (dp.panic), so
#     the poisoned memo must de-poison and the breaker re-opens
#   - the next probe succeeds with answers byte-identical to a fault-free
#     baseline run, and the breaker closes
#   - /metrics exposes the exact incident/open/reject counts
#   - an oversized pattern is refused 400 at the boundary
#   - a failed snapshot write is a 500 with no partial file; the retry
#     lands the checkpoint
#   - a failed snapshot read at boot falls back to a cold preload and
#     still serves byte-identical answers (with band latency injected)
#   - a panic inside the connectivity computation (dp.panic) is a 500
#     incident like any query's, and is not cached: the next
#     /connectivity answers the baseline bytes
#   - planarsiload -chaos survives a probabilistic panic storm with no
#     bare 500s/503s (every failure is either incident-tagged or
#     Retry-After-tagged)
#
# Everything is deterministic: -window 0 makes every query a singleton
# batch, so the Nth query consumes exactly the Nth query.panic hit, and
# the fault plan's per-site hit counters make the firing sequence
# independent of scheduling.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$tmp"' EXIT
. scripts/lib.sh

go build ${RACE:+-race} -o "$tmp/planarsid" ./cmd/planarsid
go build ${RACE:+-race} -o "$tmp/planarsiload" ./cmd/planarsiload
write_grid3_fixture "$tmp/grid.edges"

# boot <snapdir> [extra flags...]: this script's daemon configuration
# (flags repeat last-wins, so legs may override the defaults below) on
# top of the shared ephemeral-port boot helper.
boot() {
    snapdir=$1; shift
    boot_daemon -graph grid="$tmp/grid.edges" \
        -window 0 -breaker-fails 2 -breaker-cooldown 1s \
        -snapshot-dir "$snapdir" "$@"
}
stop() { stop_daemon; }

c4='{"graph":"grid","pattern":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}}'
c3='{"graph":"grid","pattern":{"n":3,"edges":[[0,1],[1,2],[2,0]]}}'
conn='{"graph":"grid"}'

# ---- Leg 0: fault-free baseline. The chaos legs must reproduce these
# bytes exactly after recovering.
boot "$tmp/snaps-baseline"
st=$(req "$tmp/base.decide" /decide "$c4");  [ "$st" = 200 ] || fail "baseline decide" "$st"
st=$(req "$tmp/base.count" /count "$c4");    [ "$st" = 200 ] || fail "baseline count" "$st"
st=$(req "$tmp/base.c3" /decide "$c3");      [ "$st" = 200 ] || fail "baseline c3" "$st"
st=$(req "$tmp/base.conn" /connectivity "$conn"); [ "$st" = 200 ] || fail "baseline connectivity" "$st"
check "baseline answers" '"count":32' "$(cat "$tmp/base.count")"
stop
echo "chaos-smoke: baseline captured"

# ---- Leg 1: panic storm -> breaker lifecycle -> byte-identical recovery.
# query.panic fires at the index boundary (before the cover build), so
# queries 1 and 2 panic without touching the band DPs; the half-open
# probe (query 4) is then the FIRST band DP attempt ever, and dp.panic
# first:1 lands inside the cover memo's once.Do — the de-poisoning path.
boot "$tmp/snaps" -fault 'query.panic=first:2,dp.panic=first:1,snapshot.write=first:1'
check "fault banner" 'FAULT INJECTION ACTIVE' "$(cat "$tmp/log")"

st=$(req "$tmp/q1" /decide "$c4"); [ "$st" = 500 ] || fail "q1 status (want 500)" "$st"
check "q1 incident id" '"incident":"inc-' "$(cat "$tmp/q1")"
st=$(req "$tmp/q2" /decide "$c4"); [ "$st" = 500 ] || fail "q2 status (want 500)" "$st"
check "q2 incident id" '"incident":"inc-' "$(cat "$tmp/q2")"
# Incidents land as structured records: the injected panic value plus
# the full goroutine stack, in slog's key=value text format.
check "incident panic logged" 'panic="fault: injected panic at query.panic' "$(cat "$tmp/log")"
check "incident stack logged" 'stack="goroutine' "$(cat "$tmp/log")"

st=$(req "$tmp/q3" /decide "$c4"); [ "$st" = 503 ] || fail "q3 status (want 503, breaker open)" "$st"
grep -qi '^retry-after:' "$tmp/hdr" || fail "q3 Retry-After header" "$(cat "$tmp/hdr")"
echo "chaos-smoke: breaker open (503 + Retry-After) ok"

sleep 1.2
st=$(req "$tmp/q4" /decide "$c4"); [ "$st" = 500 ] || fail "q4 status (want 500, dp.panic in prepare)" "$st"
check "q4 incident id" '"incident":"inc-' "$(cat "$tmp/q4")"
st=$(req "$tmp/q5" /decide "$c4"); [ "$st" = 503 ] || fail "q5 status (want 503, breaker re-open)" "$st"
grep -qi '^retry-after:' "$tmp/hdr" || fail "q5 Retry-After header" "$(cat "$tmp/hdr")"
echo "chaos-smoke: half-open probe panicked in cover build, breaker re-opened ok"

sleep 1.2
same_bytes "recovered decide" /decide "$c4" "$tmp/base.decide"
same_bytes "recovered count" /count "$c4" "$tmp/base.count"
same_bytes "recovered miss" /decide "$c3" "$tmp/base.c3"
same_bytes "recovered connectivity" /connectivity "$conn" "$tmp/base.conn"

# The exact incident/breaker accounting on /metrics: 3 incidents (q1,
# q2, q4), the decide breaker opened twice, rejected twice (q3, q5),
# and is closed (0) again after the successful probe.
metrics=$(curl -sf "http://$addr/metrics")
mval() { echo "$metrics" | awk -v k="$1" '$1==k{print $2}'; }
[ "$(mval planarsi_incidents_total)" = 3 ] || fail "metrics incidents" "$(mval planarsi_incidents_total)"
[ "$(mval 'planarsi_breaker_opens_total{graph="grid",kind="decide"}')" = 2 ] || \
    fail "metrics breaker opens" "$(mval 'planarsi_breaker_opens_total{graph="grid",kind="decide"}')"
[ "$(mval 'planarsi_breaker_rejected_total{graph="grid",kind="decide"}')" = 2 ] || \
    fail "metrics breaker rejected" "$(mval 'planarsi_breaker_rejected_total{graph="grid",kind="decide"}')"
[ "$(mval 'planarsi_breaker_state{graph="grid",kind="decide"}')" = 0 ] || \
    fail "metrics breaker closed" "$(mval 'planarsi_breaker_state{graph="grid",kind="decide"}')"
check "metrics shed family" 'planarsi_shed_total' "$metrics"
echo "chaos-smoke: metrics accounting ok (3 incidents, 2 opens, 2 rejects, closed)"

# Oversized pattern: refused 400 at the boundary, never reaching the
# engines (k > 16 would overflow the DP's bitmask state space).
edges=""
for i in $(seq 0 15); do edges="$edges[$i,$((i+1))],"; done
big='{"graph":"grid","pattern":{"n":17,"edges":['${edges%,}']}}'
st=$(req "$tmp/big" /decide "$big"); [ "$st" = 400 ] || fail "oversized status (want 400)" "$st"
check "oversized message" 'over the engine limit' "$(cat "$tmp/big")"

# Snapshot fault: the first checkpoint fails cleanly (500, injected
# error surfaced, no partial file), the retry lands it.
st=$(req "$tmp/snap1" /snapshot); [ "$st" = 500 ] || fail "snapshot#1 status (want 500)" "$st"
check "snapshot#1 error" 'fault: injected' "$(cat "$tmp/snap1")"
[ ! -f "$tmp/snaps/grid.snap" ] || fail "snapshot#1 partial file" "$tmp/snaps/grid.snap exists"
st=$(req "$tmp/snap2" /snapshot); [ "$st" = 200 ] || fail "snapshot#2 status (want 200)" "$st"
check "snapshot#2 saved" '"name":"grid"' "$(cat "$tmp/snap2")"
[ -f "$tmp/snaps/grid.snap" ] || fail "snapshot#2 file" "missing $tmp/snaps/grid.snap"
echo "chaos-smoke: snapshot write fault ok (500 + no partial file, retry landed)"

stop
echo "chaos-smoke: graceful shutdown after panic storm ok"

# ---- Leg 2: warm restart under fault. The snapshot restore fails
# (injected read error), the daemon falls back to the cold edge-list
# preload, and — with latency injected into the first band DPs — still
# serves byte-identical answers. The first /connectivity panics in its
# first band (dp.panic): a 500 incident, not a cached error, so the
# retry answers the baseline bytes.
boot "$tmp/snaps" -fault 'snapshot.read=first:1,band.latency=first:6;dur:2ms,dp.panic=first:1'
check "restore fallback" 'continuing cold' "$(cat "$tmp/log")"
check "cold preload" 'loaded graph grid' "$(cat "$tmp/log")"
st=$(req "$tmp/conn1" /connectivity "$conn"); [ "$st" = 500 ] || fail "faulted connectivity status (want 500)" "$st"
check "faulted connectivity incident id" '"incident":"inc-' "$(cat "$tmp/conn1")"
same_bytes "cold-fallback connectivity" /connectivity "$conn" "$tmp/base.conn"
same_bytes "cold-fallback count" /count "$c4" "$tmp/base.count"
stop
echo "chaos-smoke: warm-restart fault fallback and connectivity incident ok"

# ---- Leg 3: probabilistic panic storm under load. Micro-batching is
# back on (retry-as-singleton path in play); every failed request must
# be either a tagged incident (500 + id) or tagged unavailable (503 +
# Retry-After) — a bare 500/503 under chaos means a resilience bug.
boot "$tmp/snaps-load" -window 2ms -breaker-fails 3 -breaker-cooldown 250ms \
    -fault 'query.panic=p:0.25' -fault-seed 42
"$tmp/planarsiload" -addr "http://$addr" -register-grid 8x8 -graph load \
    -mode closed -concurrency 4 -duration 2s -chaos -out "$tmp/chaos-report.json"
if grep -Eq '"errors": [1-9]' "$tmp/chaos-report.json"; then
    echo "chaos-smoke: chaos load saw bare failures"; cat "$tmp/chaos-report.json"; exit 1
fi
if grep -Eq '"bareFaults"|"bareBusy"' "$tmp/chaos-report.json"; then
    echo "chaos-smoke: chaos load saw untagged 500s/503s"; cat "$tmp/chaos-report.json"; exit 1
fi
grep -Eq '"incidents"|"unavailable"' "$tmp/chaos-report.json" || \
    fail "chaos load fired no faults" "$(cat "$tmp/chaos-report.json")"
stop
echo "chaos-smoke: probabilistic load survival ok"
echo "chaos-smoke: PASS"
