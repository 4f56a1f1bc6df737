package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// counterDesc maps an exported counter to its metric name and help text.
// Names follow Prometheus conventions: mead_ prefix, _total suffix.
type counterDesc struct {
	name string
	help string
	get  func(*Telemetry) *Counter
}

type gaugeDesc struct {
	name string
	help string
	get  func(*Telemetry) *Gauge
}

type histDesc struct {
	name string
	help string
	get  func(*Telemetry) *Histogram
}

var counterDescs = []counterDesc{
	{"mead_requests_sent_total", "GIOP Requests written by the client (including retransmissions).", func(t *Telemetry) *Counter { return &t.RequestsSent }},
	{"mead_replies_received_total", "GIOP Replies matched to an in-flight request.", func(t *Telemetry) *Counter { return &t.RepliesReceived }},
	{"mead_retransmits_total", "Requests re-sent after NEEDS_ADDRESSING_MODE or a transport swap.", func(t *Telemetry) *Counter { return &t.Retransmits }},
	{"mead_location_forwards_total", "LOCATION_FORWARD replies followed to a new IOR.", func(t *Telemetry) *Counter { return &t.LocationForwards }},
	{"mead_comm_failures_total", "COMM_FAILURE exceptions surfaced to the application.", func(t *Telemetry) *Counter { return &t.CommFailures }},
	{"mead_transients_total", "TRANSIENT exceptions surfaced to the application.", func(t *Telemetry) *Counter { return &t.Transients }},
	{"mead_stale_replies_total", "Replies discarded because no request was in flight.", func(t *Telemetry) *Counter { return &t.StaleReplies }},
	{"mead_conns_opened_total", "Client transports dialed.", func(t *Telemetry) *Counter { return &t.ConnsOpened }},
	{"mead_conn_swaps_total", "Interceptor transport swaps beneath the ORB.", func(t *Telemetry) *Counter { return &t.ConnSwaps }},
	{"mead_mead_failovers_total", "MEAD fail-over frames consumed by the client interceptor.", func(t *Telemetry) *Counter { return &t.MeadFailovers }},
	{"mead_standbys_ready_total", "Connections the client interceptor warmed ahead of a MEAD hand-off.", func(t *Telemetry) *Counter { return &t.StandbysReady }},
	{"mead_server_requests_total", "Requests dispatched by the server ORB.", func(t *Telemetry) *Counter { return &t.ServerRequests }},
	{"mead_threshold_crossings_total", "Resource thresholds crossed by replicas.", func(t *Telemetry) *Counter { return &t.ThresholdCrossings }},
	{"mead_replicas_killed_total", "Replica departures observed by the recovery manager.", func(t *Telemetry) *Counter { return &t.ReplicasKilled }},
	{"mead_relaunches_total", "Replicas (re)launched by the recovery manager.", func(t *Telemetry) *Counter { return &t.Relaunches }},
	{"mead_multicasts_total", "GCS payload deliveries to members.", func(t *Telemetry) *Counter { return &t.Multicasts }},
	{"mead_view_changes_total", "GCS view changes emitted.", func(t *Telemetry) *Counter { return &t.ViewChanges }},
	{"mead_name_ops_total", "Naming-service operations served.", func(t *Telemetry) *Counter { return &t.NameOps }},
	{"mead_naming_dials_total", "Connections naming-service clients dialed (one per session, plus one per stale session found).", func(t *Telemetry) *Counter { return &t.NamingDials }},
	{"mead_gcs_slow_consumer_drops_total", "Members the GCS hub disconnected because their delivery queue was full.", func(t *Telemetry) *Counter { return &t.SlowConsumerDrops }},
	{"mead_ops_logged_total", "Op records appended to the durable log.", func(t *Telemetry) *Counter { return &t.OpsLogged }},
	{"mead_ops_replayed_total", "Log records replayed during durable recovery.", func(t *Telemetry) *Counter { return &t.OpsReplayed }},
	{"mead_dups_suppressed_total", "Retransmissions answered from the at-most-once dedup table.", func(t *Telemetry) *Counter { return &t.DupsSuppressed }},
	{"mead_checkpoints_persisted_total", "Durable checkpoints written.", func(t *Telemetry) *Counter { return &t.CheckpointsPersisted }},
	{"mead_log_truncations_total", "Damaged durable-log tails truncated at recovery.", func(t *Telemetry) *Counter { return &t.LogTruncations }},
}

var gaugeDescs = []gaugeDesc{
	{"mead_leak_bytes", "Bytes currently consumed by the injected memory leak.", func(t *Telemetry) *Gauge { return &t.LeakBytes }},
	{"mead_leak_capacity_bytes", "Resource-budget capacity the injected leak runs against.", func(t *Telemetry) *Gauge { return &t.LeakCapacity }},
	{"mead_naming_sessions", "Client connections the naming server holds open.", func(t *Telemetry) *Gauge { return &t.NamingSessions }},
}

var histDescs = []histDesc{
	{"mead_invoke_rtt_seconds", "Client invocation round-trip time.", func(t *Telemetry) *Histogram { return &t.InvokeRTT }},
	{"mead_steady_rtt_seconds", "Fault-free invocation round-trip time.", func(t *Telemetry) *Histogram { return &t.SteadyRTT }},
	{"mead_failover_rtt_seconds", "Round-trip time of invocations spanning a fail-over.", func(t *Telemetry) *Histogram { return &t.FailoverRTT }},
	{"mead_dispatch_seconds", "Server-side servant dispatch duration.", func(t *Telemetry) *Histogram { return &t.DispatchTime }},
}

func promLabels(t *Telemetry) string {
	if t.scheme == "" {
		return ""
	}
	return fmt.Sprintf(`{scheme=%q}`, t.scheme)
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// framesPerWriteName is the one ratio series: frames the GCS hub wrote to
// members per transport write that carried them (1 when nothing is ever
// queued behind a busy writer, 0 before the first write).
const framesPerWriteName = "mead_gcs_frames_per_write"

func (t *Telemetry) framesPerWrite() float64 {
	writes := t.GroupWrites.Value()
	if writes == 0 {
		return 0
	}
	return float64(t.GroupFrames.Value()) / float64(writes)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4). Histograms are rendered as summaries: quantile
// series plus _sum and _count, with durations in seconds.
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	var b strings.Builder
	labels := promLabels(t)
	for _, d := range counterDescs {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s%s %d\n",
			d.name, d.help, d.name, d.name, labels, d.get(t).Value())
	}
	for _, d := range gaugeDescs {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s%s %d\n",
			d.name, d.help, d.name, d.name, labels, d.get(t).Value())
	}
	fmt.Fprintf(&b, "# HELP %s GCS frames written to members per transport write.\n# TYPE %s gauge\n%s%s %g\n",
		framesPerWriteName, framesPerWriteName, framesPerWriteName, labels, t.framesPerWrite())
	for _, d := range histDescs {
		s := d.get(t).Snapshot()
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s summary\n", d.name, d.help, d.name)
		for _, q := range [...]struct {
			q float64
			v time.Duration
		}{{0.5, s.P50()}, {0.99, s.P99()}, {1.0, s.Max}} {
			if t.scheme != "" {
				fmt.Fprintf(&b, "%s{scheme=%q,quantile=\"%g\"} %g\n", d.name, t.scheme, q.q, seconds(q.v))
			} else {
				fmt.Fprintf(&b, "%s{quantile=\"%g\"} %g\n", d.name, q.q, seconds(q.v))
			}
		}
		fmt.Fprintf(&b, "%s_sum%s %g\n%s_count%s %d\n",
			d.name, labels, seconds(s.Sum), d.name, labels, s.Count)
	}
	tr := t.trace
	fmt.Fprintf(&b, "# HELP mead_trace_events_total Recovery events recorded (including overwritten).\n# TYPE mead_trace_events_total counter\nmead_trace_events_total%s %d\n", labels, uint64(tr.Len())+tr.Dropped())
	fmt.Fprintf(&b, "# HELP mead_trace_dropped_total Recovery events overwritten by ring wrap-around.\n# TYPE mead_trace_dropped_total counter\nmead_trace_dropped_total%s %d\n", labels, tr.Dropped())
	_, err := io.WriteString(w, b.String())
	return err
}

// jsonHist is the JSON shape of one histogram.
type jsonHist struct {
	Count uint64 `json:"count"`
	SumNS int64  `json:"sum_ns"`
	Mean  int64  `json:"mean_ns"`
	P50   int64  `json:"p50_ns"`
	P99   int64  `json:"p99_ns"`
	Max   int64  `json:"max_ns"`
}

func histJSON(s Snapshot) jsonHist {
	return jsonHist{
		Count: s.Count,
		SumNS: int64(s.Sum),
		Mean:  int64(s.Mean()),
		P50:   int64(s.P50()),
		P99:   int64(s.P99()),
		Max:   int64(s.Max),
	}
}

// WriteJSON renders every metric as one JSON document.
func (t *Telemetry) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	doc := struct {
		Scheme     string              `json:"scheme,omitempty"`
		Counters   map[string]uint64   `json:"counters"`
		Gauges     map[string]int64    `json:"gauges"`
		Ratios     map[string]float64  `json:"ratios"`
		Histograms map[string]jsonHist `json:"histograms"`
		TraceLen   int                 `json:"trace_len"`
		TraceDrops uint64              `json:"trace_dropped"`
	}{
		Scheme:     t.scheme,
		Counters:   make(map[string]uint64, len(counterDescs)),
		Gauges:     make(map[string]int64, len(gaugeDescs)),
		Ratios:     map[string]float64{framesPerWriteName: t.framesPerWrite()},
		Histograms: make(map[string]jsonHist, len(histDescs)),
		TraceLen:   t.trace.Len(),
		TraceDrops: t.trace.Dropped(),
	}
	for _, d := range counterDescs {
		doc.Counters[d.name] = d.get(t).Value()
	}
	for _, d := range gaugeDescs {
		doc.Gauges[d.name] = d.get(t).Value()
	}
	for _, d := range histDescs {
		doc.Histograms[d.name] = histJSON(d.get(t).Snapshot())
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Handler returns an http.Handler exposing:
//
//	/metrics       Prometheus text format (JSON with ?format=json or an
//	               Accept: application/json header)
//	/metrics.json  JSON document
//	/trace         recovery-event trace as JSONL
func Handler(t *Telemetry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" ||
			strings.Contains(r.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			_ = t.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = t.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = t.WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if t == nil {
			return
		}
		_ = t.trace.WriteJSONL(w)
	})
	return mux
}

// Server is a running metrics endpoint.
type Server struct {
	ln   net.Listener
	http *http.Server
}

// Serve starts an HTTP metrics endpoint on addr (e.g. ":9464" or
// "127.0.0.1:0"). It returns once the listener is bound; requests are
// served in the background until Close.
func Serve(addr string, t *Telemetry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(t)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, http: srv}, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint.
func (s *Server) Close() error { return s.http.Close() }
