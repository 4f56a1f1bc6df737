package main

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mead/internal/telemetry"
)

// sampleEvery is the span sampling rate: one invocation in 64 is traced.
const sampleEvery = 64

// span is one timed interval of one sampled invocation. Spans of one
// invocation share Trace; Parent is the ID of the span that caused this one
// (0 for the root). Times are nanoseconds since the tracer started.
type span struct {
	Trace    uint64 `json:"trace"`
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	// Placed is set on replica.dispatch: its duration is the replica's own
	// telemetry, but the benchmark cannot see when it began, so it is
	// centred in the wire round trip.
	Placed bool `json:"start_estimated,omitempty"`
}

// liveSpan collects the wire times of the invocation being sampled.
type liveSpan struct {
	wireStart atomic.Int64 // first request Write, ns since tracer start
	wireEnd   atomic.Int64 // last reply Read
}

// tracer records spans around the benchmark's calls into each layer. It keeps
// them in memory until the run ends.
type tracer struct {
	workload string
	t0       time.Time
	n        atomic.Uint64
	active   atomic.Pointer[liveSpan]

	mu     sync.Mutex
	spans  []span
	nextID uint64
	// self times of each sampled invocation, ns
	clientSelf, wireSelf, dispatch []float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// tracedConn notes when the sampled invocation's request leaves and when its
// reply has been read.
type tracedConn struct {
	net.Conn
	t *tracer
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if ls := c.t.active.Load(); ls != nil {
		ls.wireStart.CompareAndSwap(0, c.t.now())
	}
	return c.Conn.Write(p)
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if ls := c.t.active.Load(); ls != nil && n > 0 {
		ls.wireEnd.Store(c.t.now())
	}
	return n, err
}

// dial is an orb.DialFunc that wraps every connection a client opens.
func (t *tracer) dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: conn, t: t}, nil
}

// wrap samples one invocation in sampleEvery: client.invoke around the call,
// wire.roundtrip from the traced conn, replica.dispatch from the growth of
// the deployment's dispatch histogram across the call.
func (t *tracer) wrap(inv invoker, dispatch *telemetry.Histogram) invoker {
	return func() outcome {
		if t.n.Add(1)%sampleEvery != 0 {
			return inv()
		}
		ls := &liveSpan{}
		if !t.active.CompareAndSwap(nil, ls) {
			return inv() // another caller's invocation is being sampled
		}
		before := dispatch.Snapshot()
		start := t.now()
		out := inv()
		end := t.now()
		t.active.Store(nil)
		after := dispatch.Snapshot()

		var served time.Duration
		if n := after.Count - before.Count; n > 0 {
			served = (after.Sum - before.Sum) / time.Duration(n)
		}
		t.record(start, end, ls.wireStart.Load(), ls.wireEnd.Load(), served.Nanoseconds())
		return out
	}
}

func (t *tracer) record(start, end, wireStart, wireEnd, served int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.nextID + 1
	t.nextID += 3
	t.spans = append(t.spans, span{Trace: root, ID: root, Name: "client.invoke", Workload: t.workload, Start: start, End: end})
	if wireStart == 0 || wireEnd < wireStart {
		return // nothing crossed the traced conn (cannot happen on a live reference)
	}
	t.spans = append(t.spans, span{Trace: root, ID: root + 1, Parent: root, Name: "wire.roundtrip", Workload: t.workload, Start: wireStart, End: wireEnd})
	wire := wireEnd - wireStart
	if served > wire {
		served = wire
	}
	mid := wireStart + (wire-served)/2
	t.spans = append(t.spans, span{Trace: root, ID: root + 2, Parent: root + 1, Name: "replica.dispatch", Workload: t.workload, Start: mid, End: mid + served, Placed: true})
	t.clientSelf = append(t.clientSelf, float64(end-start-wire))
	t.wireSelf = append(t.wireSelf, float64(wire-served))
	t.dispatch = append(t.dispatch, float64(served))
}

// write puts the spans in path as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
