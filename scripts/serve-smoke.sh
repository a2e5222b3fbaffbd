#!/usr/bin/env bash
# serve-smoke: boots the planarsid daemon, fires a scripted query burst
# with curl, checks the answers, then exercises the snapshot warm-restart
# path end to end (used by `make serve-smoke` and CI).
#
# The host is the 3x3 grid, small enough that every expected answer is
# known exactly: C4 occurs (32 occurrences at seed 1, counting
# automorphic images), the triangle does not, and the connectivity is 2.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$tmp"' EXIT
. scripts/lib.sh

go build -o "$tmp/planarsid" ./cmd/planarsid
write_grid3_fixture "$tmp/grid.edges"

# boot <extra flags...>: this script's daemon configuration on top of
# the shared ephemeral-port boot helper.
boot() {
    boot_daemon -graph grid="$tmp/grid.edges" -window 5ms \
        -snapshot-dir "$tmp/snaps" "$@"
}
stop() { stop_daemon; }

c4='{"graph":"grid","pattern":{"n":4,"edges":[[0,1],[1,2],[2,3],[3,0]]}}'
c3='{"graph":"grid","pattern":{"n":3,"edges":[[0,1],[1,2],[2,0]]}}'

boot -debug-addr 127.0.0.1:0 -trace-log "$tmp/trace.jsonl"
check healthz ok "$(curl -sf "http://$addr/healthz")"

# Concurrent query burst: 4 decides + 4 counts of the same pattern land
# in shared micro-batches.
curls=()
for i in 1 2 3 4; do
    curl -sf -X POST "http://$addr/decide" -d "$c4" > "$tmp/decide$i" & curls+=($!)
    curl -sf -X POST "http://$addr/count" -d "$c4" > "$tmp/count$i" & curls+=($!)
done
wait "${curls[@]}"
for i in 1 2 3 4; do
    check "decide#$i" '"found":true' "$(cat "$tmp/decide$i")"
    check "count#$i" '"count":32' "$(cat "$tmp/count$i")"
done

check "decide C3" '"found":false' "$(curl -sf -X POST "http://$addr/decide" -d "$c3")"
check connectivity '"connectivity":2' "$(curl -sf -X POST "http://$addr/connectivity" -d '{"graph":"grid"}')"
# Separating search: a P3 through the centre (the middle column, say)
# separates corners 0 and 2; a terminal outside the graph is a 400.
sep='{"graph":"grid","pattern":{"n":3,"edges":[[0,1],[1,2]]},"terminals":[0,2]}'
sep99='{"graph":"grid","pattern":{"n":3,"edges":[[0,1],[1,2]]},"terminals":[0,99]}'
check "separating P3" '"found":true' "$(curl -sf -X POST "http://$addr/separating" -d "$sep")"
st=$(req "$tmp/sep99" /separating "$sep99")
[ "$st" = 400 ] || fail "separating terminal 99 status (want 400)" "$st $(cat "$tmp/sep99")"
echo "serve-smoke: separating terminal 99 rejected ok"
check register '"n":3' "$(printf '0 1\n1 2\n' | curl -sf -X POST "http://$addr/graphs/path" --data-binary @-)"
check "decide path" '"found":true' "$(curl -sf -X POST "http://$addr/find" -d '{"graph":"path","pattern":{"n":2,"edges":[[0,1]]}}')"
check stats '"batches"' "$(curl -sf "http://$addr/stats")"
check "stats percentiles" '"p99Millis"' "$(curl -sf "http://$addr/stats")"

# A traced query returns its band timeline inline, with a nonzero DP
# cost breakdown attached.
traced=$(curl -sf -X POST "http://$addr/decide?trace=1" -d "$c4")
check "trace spans" '"name":"band"' "$traced"
check "trace cost" '"emissions":' "$traced"

# Request correlation: every response carries X-Request-Id, and an
# inbound W3C traceparent is echoed back under the same trace-id.
tp_in='00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01'
hdrs=$(curl -sf -D - -o /dev/null -X POST -H "traceparent: $tp_in" "http://$addr/decide" -d "$c4")
echo "$hdrs" | grep -qi '^x-request-id: [0-9a-f]\{16\}' || fail "request id header" "$hdrs"
echo "$hdrs" | grep -qi '^traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-[0-9a-f]\{16\}-01' \
    || fail "traceparent echo" "$hdrs"
echo "serve-smoke: request correlation headers ok"

# Prometheus exposition: the families exist and the decide counter saw
# the burst above (>= 9 ok requests so far on this endpoint).
metrics=$(curl -sf "http://$addr/metrics")
check "metrics type" 'TYPE planarsi_http_request_duration_seconds histogram' "$metrics"
check "metrics buckets" 'planarsi_http_request_duration_seconds_bucket{endpoint="decide",le="+Inf"}' "$metrics"
check "metrics sched" 'planarsi_sched_batches_total' "$metrics"
decide_ok=$(echo "$metrics" | sed -n 's/^planarsi_http_requests_total{endpoint="decide",result="ok"} //p')
if [ -z "$decide_ok" ] || [ "$decide_ok" -lt 6 ]; then
    fail "metrics decide counter" "${decide_ok:-missing}"
fi
echo "serve-smoke: metrics ok (decide ok=$decide_ok)"

# Introspection families added by the cost/trace work are all present.
check "metrics memo" 'planarsi_index_memo_hits_total{class="cover",graph="grid"}' "$metrics"
check "metrics epoch" 'planarsi_index_epoch{graph="grid"} 0' "$metrics"
check "metrics pool" 'planarsi_pool_steals_total' "$metrics"
check "metrics trace-dropped" 'planarsi_trace_dropped_total' "$metrics"
check "metrics go runtime" 'planarsi_go_goroutines' "$metrics"

# The whole exposition must survive the structural lint (format 0.0.4:
# headers before samples, cumulative histogram buckets, +Inf == _count).
echo "$metrics" | bash scripts/metrics-lint.sh || fail "metrics lint" "see above"

# The debug/pprof listener runs on its own port, off the query path.
dbg=$(sed -n 's/.*debug\/pprof listening on \([0-9.:]*\)$/\1/p' "$tmp/log" | head -1)
[ -n "$dbg" ] || fail "debug addr" "$(cat "$tmp/log")"
curl -sf --max-time 5 "http://$dbg/debug/pprof/" > /dev/null || fail "pprof index" "curl http://$dbg/debug/pprof/"
echo "serve-smoke: debug/pprof ok ($dbg)"

# Every instrumented request lands one JSONL record in the trace log;
# traced requests additionally carry spans and cost.
[ -s "$tmp/trace.jsonl" ] || fail "trace log" "empty $tmp/trace.jsonl"
grep -q '"requestId"' "$tmp/trace.jsonl" || fail "trace log requestId" "$(head -1 "$tmp/trace.jsonl")"
grep -q '"spans"' "$tmp/trace.jsonl" || fail "trace log spans" "no traced record in $tmp/trace.jsonl"
echo "serve-smoke: trace log ok ($(wc -l < "$tmp/trace.jsonl") records)"

# On-demand checkpoint: the response lists the warmed grid cache and the
# file lands in the snapshot directory.
check snapshot '"name":"grid"' "$(curl -sf -X POST "http://$addr/snapshot")"
[ -f "$tmp/snaps/grid.snap" ] || fail snapshot-file "missing $tmp/snaps/grid.snap"
echo "serve-smoke: snapshot file ok"

stop
persisted=$(sed -n 's/.*persisted graph grid (covers=\([0-9]*\),.*/\1/p' "$tmp/log" | tail -1)
[ -n "$persisted" ] && [ "$persisted" -gt 0 ] || fail "persisted covers" "$(cat "$tmp/log")"
echo "serve-smoke: graceful shutdown ok (snapshot persisted with covers=$persisted)"

# Warm restart: the daemon must restore the grid from its snapshot
# (skipping the edge-list preload and the preprocessing), restore
# exactly the covers the shutdown persisted, and serve identical
# answers.
boot
restored=$(sed -n 's/.*warm boot: restored graph grid (.*covers=\([0-9]*\)).*/\1/p' "$tmp/log" | head -1)
[ "$restored" = "$persisted" ] || fail "warm boot covers (want $persisted)" "${restored:-none}; $(cat "$tmp/log")"
echo "serve-smoke: warm boot ok (covers=$restored restored)"
check "warm skip-preload" "already restored from snapshot" "$(cat "$tmp/log")"
check "warm count" '"count":32' "$(curl -sf -X POST "http://$addr/count" -d "$c4")"
check "warm decide C3" '"found":false' "$(curl -sf -X POST "http://$addr/decide" -d "$c3")"
check "warm connectivity" '"connectivity":2' "$(curl -sf -X POST "http://$addr/connectivity" -d '{"graph":"grid"}')"
stop
echo "serve-smoke: warm graceful shutdown ok"
echo "serve-smoke: PASS"
