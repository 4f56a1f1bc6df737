#!/bin/sh
# metrics_smoke.sh — end-to-end smoke test of the telemetry endpoint:
# boots a minimal deployment (hub, naming service, one replica with
# -metrics), drives a short client workload, and validates the /metrics
# (Prometheus text + JSON) and /trace (JSONL) responses.
set -eu

HUB_PORT=${HUB_PORT:-14803}
NAMES_PORT=${NAMES_PORT:-14804}
METRICS_PORT=${METRICS_PORT:-19090}
HUB=127.0.0.1:$HUB_PORT
NAMES=127.0.0.1:$NAMES_PORT
METRICS=127.0.0.1:$METRICS_PORT

workdir=$(mktemp -d)
pids=""
cleanup() {
    for pid in $pids; do kill "$pid" 2>/dev/null || true; done
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

echo "metrics-smoke: building binaries"
go build -o "$workdir" ./cmd/mead-hub ./cmd/mead-names ./cmd/mead-server ./cmd/mead-client

"$workdir/mead-hub" -addr "$HUB" &
pids="$pids $!"
"$workdir/mead-names" -addr "$NAMES" &
pids="$pids $!"
sleep 0.3

"$workdir/mead-server" -name r1 -hub "$HUB" -names "$NAMES" \
    -scheme mead-message -metrics "$METRICS" &
pids="$pids $!"

# Wait for the metrics endpoint to come up.
i=0
until curl -fsS "http://$METRICS/metrics" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "metrics-smoke: endpoint never came up" >&2
        exit 1
    fi
    sleep 0.1
done

echo "metrics-smoke: driving client workload"
"$workdir/mead-client" -hub "$HUB" -names "$NAMES" -scheme mead-message \
    -n 50 -period 1ms >/dev/null

prom="$workdir/metrics.prom"
json="$workdir/metrics.json"
trace="$workdir/trace.jsonl"
curl -fsS "http://$METRICS/metrics" >"$prom"
curl -fsS "http://$METRICS/metrics?format=json" >"$json"
curl -fsS "http://$METRICS/trace" >"$trace"

fail() {
    echo "metrics-smoke: FAIL: $1" >&2
    exit 1
}

# Prometheus text format: HELP/TYPE headers and the server-side counters
# the client workload must have moved.
grep -q '^# TYPE mead_server_requests_total counter$' "$prom" ||
    fail "missing TYPE line for mead_server_requests_total"
grep -q '^# TYPE mead_dispatch_seconds summary$' "$prom" ||
    fail "missing TYPE line for mead_dispatch_seconds"
served=$(awk '$1 ~ /^mead_server_requests_total/ { print $NF }' "$prom" | head -1)
[ -n "$served" ] && [ "$served" -ge 50 ] ||
    fail "mead_server_requests_total=$served, want >= 50"
grep -q 'mead_dispatch_seconds{.*quantile="0.99"' "$prom" ||
    fail "missing dispatch p99 quantile series"
# A replica rebinds over one naming connection per incarnation and closes it.
dials=$(awk '$1 ~ /^mead_naming_dials_total/ { print $NF }' "$prom" | head -1)
[ "$dials" = 1 ] || fail "mead_naming_dials_total=$dials on the replica, want 1"

# JSON document shape.
grep -q '"scheme": *"mead-message"' "$json" || fail "JSON export missing scheme"
grep -q '"mead_server_requests_total"' "$json" || fail "JSON export missing counters"

# Trace endpoint answers (the replica's trace may be empty on a clean run;
# the check is that the endpoint serves JSONL without error).
[ -f "$trace" ] || fail "trace endpoint unreachable"

echo "metrics-smoke: OK (server dispatched $served requests)"
