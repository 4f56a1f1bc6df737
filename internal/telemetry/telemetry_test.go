package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Set(100)
	g.Add(-30)
	if got := g.Value(); got != 70 {
		t.Fatalf("gauge = %d, want 70", got)
	}
}

func TestNilTelemetryIsNoOp(t *testing.T) {
	var tel *Telemetry
	// Every instrumentation method must be callable on nil.
	tel.RequestSent("a")
	tel.ReplyReceived(time.Millisecond)
	tel.Retransmitted("a")
	tel.ForwardTaken("a")
	tel.CommFailureRaised("r1", "a")
	tel.TransientRaised("r1", "a")
	tel.FailoverReceived("a")
	tel.ConnSwapped("a")
	tel.StaleReply()
	tel.ConnOpened("a")
	tel.Dispatched(time.Microsecond)
	tel.ThresholdCrossed("r1", 80)
	tel.ReplicaKilled("r1")
	tel.Relaunched("r1")
	tel.LeakSample(10, 100)
	tel.Multicast()
	tel.ViewChange()
	tel.NameOp()
	tel.SteadyInvoke(time.Millisecond)
	tel.FailoverInvoke(time.Millisecond)
	if tel.Events() != nil || tel.Trace() != nil || tel.Scheme() != "" {
		t.Fatal("nil accessors not empty")
	}
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTraceRingBounded(t *testing.T) {
	tr := newTrace(4)
	for i := 0; i < 10; i++ {
		tr.record(Event{Kind: EvRequestSent, Value: int64(i)})
	}
	if tr.Len() != 4 {
		t.Fatalf("len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	// Oldest-first, retaining the newest 4 with monotonic seqs.
	for i, ev := range evs {
		wantVal, wantSeq := int64(6+i), uint64(6+i)
		if ev.Value != wantVal || ev.Seq != wantSeq {
			t.Fatalf("event %d = {seq %d val %d}, want {seq %d val %d}",
				i, ev.Seq, ev.Value, wantSeq, wantVal)
		}
	}
}

func TestTraceEventFields(t *testing.T) {
	tel := New(WithScheme("mead-message"))
	tel.CommFailureRaised("r2", "127.0.0.1:9000")
	tel.ThresholdCrossed("r1", 83)
	evs := tel.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d, want 2", len(evs))
	}
	if evs[0].Kind != EvCommFailure || evs[0].Replica != "r2" ||
		evs[0].Addr != "127.0.0.1:9000" || evs[0].Scheme != "mead-message" {
		t.Fatalf("bad comm-failure event: %+v", evs[0])
	}
	if evs[1].Kind != EvThresholdCrossed || evs[1].Replica != "r1" || evs[1].Value != 83 {
		t.Fatalf("bad threshold event: %+v", evs[1])
	}
	if evs[1].At < evs[0].At {
		t.Fatalf("timestamps not monotonic: %v then %v", evs[0].At, evs[1].At)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvRequestSent, EvRetransmit, EvCommFailure, EvTransient,
		EvLocationForward, EvMeadFailover, EvConnSwapped, EvThresholdCrossed,
		EvReplicaKilled}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || s == "" {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if EventKind(0).String() != "unknown" || EventKind(200).String() != "unknown" {
		t.Fatal("out-of-range kinds should stringify as unknown")
	}
}

func TestTraceJSONL(t *testing.T) {
	tel := New(WithScheme("reactive"))
	tel.RequestSent("127.0.0.1:1")
	tel.CommFailureRaised("r1", "127.0.0.1:1")
	var buf bytes.Buffer
	if err := tel.Trace().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	if lines[0]["kind"] != "request-sent" || lines[1]["kind"] != "comm-failure" {
		t.Fatalf("kinds = %v, %v", lines[0]["kind"], lines[1]["kind"])
	}
	if lines[1]["replica"] != "r1" || lines[1]["scheme"] != "reactive" {
		t.Fatalf("fields lost in JSONL: %v", lines[1])
	}
}

// TestConcurrentStress hammers counters, histograms, and the trace ring from
// 64 goroutines; run with -race this doubles as the data-race proof, and the
// final counts prove no increments were lost.
func TestConcurrentStress(t *testing.T) {
	const goroutines = 64
	const perG = 2000
	tel := New(WithTraceCapacity(256))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tel.RequestSent("addr")
				tel.ReplyReceived(time.Duration(i) * time.Microsecond)
				tel.Dispatched(time.Duration(g) * time.Microsecond)
				tel.LeakSample(int64(i), perG)
				if i%100 == 0 {
					tel.ConnSwapped("addr")
					_ = tel.Events()
					_ = tel.InvokeRTT.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	const total = goroutines * perG
	if got := tel.RequestsSent.Value(); got != total {
		t.Fatalf("RequestsSent = %d, want %d", got, total)
	}
	if got := tel.RepliesReceived.Value(); got != total {
		t.Fatalf("RepliesReceived = %d, want %d", got, total)
	}
	s := tel.InvokeRTT.Snapshot()
	if s.Count != total {
		t.Fatalf("histogram count = %d, want %d", s.Count, total)
	}
	var bucketSum uint64
	for _, n := range s.Buckets {
		bucketSum += n
	}
	if bucketSum != total {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, total)
	}
	tr := tel.Trace()
	if got := uint64(tr.Len()) + tr.Dropped(); got != total+total/100 {
		t.Fatalf("trace recorded %d events, want %d", got, total+total/100)
	}
}

func TestPrometheusFormat(t *testing.T) {
	tel := New(WithScheme("lf"))
	tel.RequestSent("a")
	tel.ReplyReceived(2 * time.Millisecond)
	tel.Dispatched(50 * time.Microsecond)
	tel.GroupWrite(3)
	tel.GroupWrite(1)
	tel.SlowConsumerDrop()
	var buf bytes.Buffer
	if err := tel.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mead_gcs_frames_per_write gauge",
		`mead_gcs_frames_per_write{scheme="lf"} 2`,
		`mead_gcs_slow_consumer_drops_total{scheme="lf"} 1`,
		"# TYPE mead_requests_sent_total counter",
		`mead_requests_sent_total{scheme="lf"} 1`,
		"# TYPE mead_invoke_rtt_seconds summary",
		`mead_invoke_rtt_seconds{scheme="lf",quantile="0.5"}`,
		`mead_invoke_rtt_seconds_count{scheme="lf"} 1`,
		"# TYPE mead_leak_bytes gauge",
		"mead_trace_events_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value" with a numeric value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		var f float64
		if _, err := fmt.Sscanf(fields[1], "%g", &f); err != nil {
			t.Fatalf("non-numeric value in line %q", line)
		}
	}
}

func TestJSONExport(t *testing.T) {
	tel := New(WithScheme("mead-message"))
	tel.ReplyReceived(time.Millisecond)
	tel.SteadyInvoke(time.Millisecond)
	tel.GroupWrite(5)
	var buf bytes.Buffer
	if err := tel.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Scheme     string                     `json:"scheme"`
		Counters   map[string]uint64          `json:"counters"`
		Ratios     map[string]float64         `json:"ratios"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Scheme != "mead-message" {
		t.Fatalf("scheme = %q", doc.Scheme)
	}
	if doc.Counters["mead_replies_received_total"] != 1 {
		t.Fatalf("counter missing: %v", doc.Counters)
	}
	if _, ok := doc.Histograms["mead_steady_rtt_seconds"]; !ok {
		t.Fatalf("histogram missing: %v", doc.Histograms)
	}
	if doc.Ratios["mead_gcs_frames_per_write"] != 5 {
		t.Fatalf("frames per write: %v", doc.Ratios)
	}
}

func TestHTTPEndpoint(t *testing.T) {
	tel := New(WithScheme("reactive"))
	tel.RequestSent("a")
	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path, accept string) (string, string) {
		req, _ := http.NewRequest("GET", "http://"+srv.Addr()+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics", "")
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(body, "mead_requests_sent_total") {
		t.Fatalf("/metrics: ct=%q body=%q", ct, body[:min(len(body), 120)])
	}
	body, ct = get("/metrics", "application/json")
	if !strings.HasPrefix(ct, "application/json") || !strings.Contains(body, "counters") {
		t.Fatalf("/metrics (json accept): ct=%q", ct)
	}
	body, _ = get("/metrics.json", "")
	if !strings.Contains(body, "mead_requests_sent_total") {
		t.Fatal("/metrics.json missing counters")
	}
	body, _ = get("/trace", "")
	if !strings.Contains(body, "request-sent") {
		t.Fatalf("/trace missing event: %q", body)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
