package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"mead/internal/cdr"
	"mead/internal/durable"
	"mead/internal/ftmgr"
	"mead/internal/gcs"
	"mead/internal/giop"
	"mead/internal/namesvc"
	"mead/internal/orb"
	"mead/internal/replica"
	"mead/internal/telemetry"
)

// sink keeps the compiler from removing timed calls whose results are unused.
var sink uint64

// perOp times batches of n calls of fn and returns the median batch mean, ns.
func perOp(batches, n int, fn func()) float64 {
	means := make([]float64, batches)
	for b := range means {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		means[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(means)
}

// timed returns how long each of n calls of fn took, ns.
func timed(n int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0).Nanoseconds()))
	}
	return out, nil
}

// ioSyscalls reads the process's cumulative read and write system calls.
func ioSyscalls() (reads, writes float64, err error) {
	if reads, err = procValue("/proc/self/io", "syscr:"); err != nil {
		return 0, 0, err
	}
	writes, err = procValue("/proc/self/io", "syscw:")
	return reads, writes, err
}

// runTraced measures the per-layer metrics: the workload itself under span
// tracing, beside an untraced window of the same length for the tracing
// overhead, then the layer lab, which is the same whatever the workload.
func runTraced(w workload, o options) (*report, error) {
	rep := &report{}
	tr := newTracer(w.name)

	// The same deployment is booted twice, untraced then traced, each with
	// one set of clients for its whole life: a second client left idle on a
	// faulty deployment would keep a migrating replica from quiescing.
	segDur := time.Duration(float64(o.seconds) * 0.2 * float64(time.Second))
	var plain, traced window
	var groupBytes uint64
	var launches, failures int
	for _, tracing := range []bool{false, true} {
		var dial orb.DialFunc
		if tracing {
			dial = tr.dial
		}
		r, err := boot(w, o, dial)
		if err != nil {
			return nil, err
		}
		callers := r.callers
		if tracing {
			callers = make([]invoker, len(r.callers))
			for i, inv := range r.callers {
				callers[i] = tr.wrap(inv, &r.d.Telemetry().DispatchTime)
			}
		}
		r.d.Hub().ResetTraffic()
		win, err := r.drive(callers, segDur)
		if err != nil {
			return nil, err
		}
		if tracing {
			traced = win
			groupBytes, _ = r.d.Hub().GroupTraffic(r.d.Group())
			launches, failures = r.d.Recovery().Launches(), r.d.Recovery().Failures()
		} else {
			plain = win
		}
		rep.attempted += win.count
		rep.failed += win.failed
		r.gate(rep)
		r.close()
	}

	if len(tr.dispatch) == 0 {
		return nil, fmt.Errorf("%s: no invocation was sampled", w.name)
	}
	rep.add("client.self_us", "us", median(tr.clientSelf)/1e3, fmt.Sprintf("client.invoke minus wire.roundtrip, median of %d sampled invocations (1 in %d)", len(tr.clientSelf), sampleEvery))
	rep.add("wire.self_us", "us", median(tr.wireSelf)/1e3, "wire.roundtrip minus replica.dispatch: kernel loopback, server ORB and both interceptors")
	rep.add("replica.dispatch_p50_us", "us", median(tr.dispatch)/1e3, "servant dispatch time of the sampled invocations, from the deployment's dispatch histogram")
	rep.add("trace.overhead_pct", "%", 100*(1-traced.rate()/plain.rate()), fmt.Sprintf("traced %.0f/s against untraced %.0f/s at reference speed, %.1f s each", traced.rate(), plain.rate(), segDur.Seconds()))
	rep.add("gcs.group_bytes_per_s", "B/s", float64(groupBytes)/traced.elapsed.Seconds(), "hub traffic of the replica group during the traced window")
	rep.add("recovery.launches", "count", float64(launches), "replicas the Recovery Manager relaunched since boot")
	rep.add("recovery.failures", "count", float64(failures), "replica departures the Recovery Manager saw since boot")
	serverFailures := traced.crashed + traced.rejuv
	rep.add("faultinject.failures_per_s", "1/s", float64(serverFailures)/traced.elapsed.Seconds(), "replicas crashed or rejuvenated per second of traced window: the fault cadence")
	failPct := 0.0
	if serverFailures > 0 {
		failPct = 100 * float64(traced.exceptions) / float64(serverFailures)
	}
	rep.add("client.fail_pct", "%", failPct, "exceptions that reached the application per server failure, traced window")

	if err := lab(o, rep); err != nil {
		return nil, err
	}
	// Say of every time and rate whether the host's speed is in it. Only what
	// a driven window yields is brought to reference speed: the lab's other
	// timings are mostly Go code, which the host's slow level barely slows,
	// and no single factor fits them (see reference.go).
	for i := range rep.metrics {
		m := &rep.metrics[i]
		switch m.Unit {
		case "ns", "us", "ms", "1/s", "B/s":
			if !strings.Contains(m.Note, "at reference speed") {
				m.Note = "as measured; " + m.Note
			}
		}
	}
	if err := tr.write(o.traceOut); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %d spans to %s\n", len(tr.spans), o.traceOut)
	return rep, nil
}

// lab times calls into each layer's public functions.
func lab(o options, rep *report) error {
	steps := []func(options, *report) error{codecLab, orbLab, substrateLab, managerLab, durableLab, durableDeploymentLab, schemeLab}
	for _, step := range steps {
		if err := step(o, rep); err != nil {
			return err
		}
	}
	return nil
}

// codecLab times the marshalling layers on the benchmark's own message.
func codecLab(_ options, rep *report) error {
	const batches, n = 9, 20000
	var failed error
	note := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}
	const id = "meadbench-client"
	ids := cdr.NewInterner(16)
	rep.add("cdr.encode_decode_ns", "ns", perOp(batches, n, func() {
		e := cdr.GetEncoder(cdr.BigEndian)
		e.WriteString(id)
		e.WriteULongLong(42)
		d := cdr.GetDecoder(e.Bytes(), cdr.BigEndian)
		s, err := d.ReadStringIntern(ids)
		note(err)
		u, err := d.ReadULongLong()
		note(err)
		sink += uint64(len(s)) + u
		d.Release()
		e.Release()
	}), "pooled encoder and decoder, the time_of_day arguments")

	hdr := giop.RequestHeader{
		RequestID:        1,
		ResponseExpected: true,
		ObjectKey:        giop.MakeObjectKey("timeofday", replica.ObjectName),
		Operation:        "time_of_day",
	}
	args := func(e *cdr.Encoder) {
		e.WriteString(id)
		e.WriteULongLong(42)
	}
	rep.add("giop.encode_request_ns", "ns", perOp(batches, n, func() {
		e := giop.EncodeRequestPooled(cdr.BigEndian, hdr, args)
		sink += uint64(e.Len())
		e.Release()
	}), "EncodeRequestPooled")

	reqBody := giop.EncodeRequest(cdr.BigEndian, hdr, args)[giop.HeaderLen:]
	rep.add("giop.decode_request_ns", "ns", perOp(batches, n, func() {
		h, d, err := giop.DecodeRequest(cdr.BigEndian, reqBody)
		note(err)
		if err == nil {
			sink += uint64(h.RequestID)
			d.Release()
		}
	}), "DecodeRequest")

	replyMsg := giop.EncodeReply(cdr.BigEndian, giop.ReplyHeader{RequestID: 1, Status: giop.ReplyNoException}, func(e *cdr.Encoder) {
		e.WriteLongLong(1234567890)
		e.WriteULongLong(42)
		e.WriteString("r1")
	})
	replyBody := replyMsg[giop.HeaderLen:]
	rep.add("giop.decode_reply_ns", "ns", perOp(batches, n, func() {
		_, d, err := giop.DecodeReply(cdr.BigEndian, replyBody)
		note(err)
		if err == nil {
			v, err := d.ReadLongLong()
			note(err)
			sink += uint64(v)
			d.Release()
		}
	}), "DecodeReply and the first result")

	rd := bytes.NewReader(replyMsg)
	rep.add("giop.read_message_ns", "ns", perOp(batches, n, func() {
		rd.Reset(replyMsg)
		h, mb, err := giop.ReadMessagePooled(rd)
		note(err)
		if err == nil {
			sink += uint64(h.Size)
			mb.Release()
		}
	}), "ReadMessagePooled from memory")

	tel := telemetry.New()
	rep.add("telemetry.record_ns", "ns", perOp(batches, n, func() {
		tel.RequestSent("127.0.0.1:1")
		tel.ReplyReceived(25 * time.Microsecond)
	}), "RequestSent + ReplyReceived, what one invocation records")
	return failed
}

// orbLab times the bare ORB (no interceptor, no replica) both ways the
// workloads use it, and the two client-side costs of the reactive path.
func orbLab(_ options, rep *report) error {
	key := giop.MakeObjectKey("meadbench", "clock")
	newServer := func() (*orb.ServerORB, giop.IOR, error) {
		s := orb.NewServer()
		s.Register(key, orb.ServantFunc(func(op string, args *cdr.Decoder, result *cdr.Encoder) error {
			result.WriteLongLong(time.Now().UnixNano())
			return nil
		}))
		if err := s.Listen("127.0.0.1:0"); err != nil {
			return nil, giop.IOR{}, err
		}
		if err := s.Start(); err != nil {
			return nil, giop.IOR{}, err
		}
		ior, err := s.IORFor("IDL:mead/TimeOfDay:1.0", key)
		return s, ior, err
	}
	call := func(ref *orb.ObjectRef) error {
		return ref.Invoke("time_of_day", nil, func(d *cdr.Decoder) error {
			_, err := d.ReadLongLong()
			return err
		})
	}
	srv, ior, err := newServer()
	if err != nil {
		return err
	}
	defer srv.Close()

	const n = 20000
	measure := func(c *orb.ClientORB, callers int) (rtts []float64, allocs, reads, writes float64, err error) {
		ref := c.Object(ior)
		defer ref.Close()
		for i := 0; i < 2000; i++ {
			if err := call(ref); err != nil {
				return nil, 0, 0, 0, err
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		r0, w0, err := ioSyscalls()
		if err != nil {
			return nil, 0, 0, 0, err
		}
		parts := make([][]float64, callers)
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				parts[g], errs[g] = timed(n/callers, func() error { return call(ref) })
			}(g)
		}
		wg.Wait()
		r1, w1, err := ioSyscalls()
		if err != nil {
			return nil, 0, 0, 0, err
		}
		runtime.ReadMemStats(&ms1)
		for g := range parts {
			if errs[g] != nil {
				return nil, 0, 0, 0, errs[g]
			}
			rtts = append(rtts, parts[g]...)
		}
		return rtts, float64(ms1.Mallocs-ms0.Mallocs) / n, (r1 - r0) / n, (w1 - w0) / n, nil
	}

	serial := orb.NewClient()
	rtts, allocs, _, _, err := measure(serial, 1)
	if err != nil {
		return err
	}
	rep.add("orb.invoke_serial_us", "us", median(rtts)/1e3, fmt.Sprintf("bare ORB, private connection, 1 caller, median of %d", n))
	rep.add("orb.allocs_per_invoke_serial", "count", allocs, "process-wide Mallocs per invocation, client and server")

	pooled := orb.NewClient(orb.WithConnectionPool())
	defer pooled.Close()
	rtts, allocs, reads, writes, err := measure(pooled, 2)
	if err != nil {
		return err
	}
	rep.add("orb.invoke_pooled2_us", "us", median(rtts)/1e3, fmt.Sprintf("bare ORB, connection pool, 2 callers on one reference, median of %d", n))
	rep.add("orb.allocs_per_invoke_pooled", "count", allocs, "process-wide Mallocs per invocation, client and server")
	rep.add("orb.writes_per_invoke_pooled", "count", writes, "write system calls per invocation, client and server (/proc/self/io)")
	rep.add("orb.reads_per_invoke_pooled", "count", reads, "read system calls per invocation, client and server (/proc/self/io)")

	addr, err := ior.Addr()
	if err != nil {
		return err
	}
	dials, err := timed(300, func() error {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return err
		}
		return conn.Close()
	})
	if err != nil {
		return err
	}
	rep.add("orb.dial_us", "us", median(dials)/1e3, "loopback TCP connect to a listening ORB, median of 300")

	var detects []float64
	for i := 0; i < 30; i++ {
		victim, vior, err := newServer()
		if err != nil {
			return err
		}
		ref := serial.Object(vior)
		if err := call(ref); err != nil {
			victim.Close()
			return err
		}
		victim.Crash()
		t0 := time.Now()
		err = call(ref)
		took := time.Since(t0)
		_ = ref.Close()
		var se *giop.SystemException
		if !errors.As(err, &se) || se.RepoID != giop.RepoCommFailure {
			return fmt.Errorf("invocation on a crashed server returned %v, want COMM_FAILURE", err)
		}
		detects = append(detects, float64(took.Nanoseconds()))
	}
	rep.add("orb.comm_failure_detect_us", "us", median(detects)/1e3, "Invoke on a connection whose server just crashed, until COMM_FAILURE; median of 30")
	return nil
}

// substrateLab times the group-communication and naming substrates.
func substrateLab(_ options, rep *report) error {
	hub := gcs.NewHub()
	if err := hub.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer hub.Close()
	sender, err := gcs.Dial(hub.Addr(), "meadbench-sender")
	if err != nil {
		return err
	}
	defer sender.Close()
	receiver, err := gcs.Dial(hub.Addr(), "meadbench-receiver")
	if err != nil {
		return err
	}
	defer receiver.Close()
	const group = "meadbench.lab"
	if err := receiver.Join(group); err != nil {
		return err
	}
	await := func(kind gcs.DeliveryKind) error {
		for {
			select {
			case d, ok := <-receiver.Deliveries():
				if !ok {
					return errors.New("gcs: receiver disconnected")
				}
				if d.Kind == kind {
					return nil
				}
			case <-time.After(5 * time.Second):
				return errors.New("gcs: no delivery within 5 s")
			}
		}
	}
	if err := await(gcs.DeliverView); err != nil {
		return err
	}
	payload := make([]byte, 64)
	deliveries, err := timed(3000, func() error {
		if err := sender.Multicast(group, payload); err != nil {
			return err
		}
		return await(gcs.DeliverData)
	})
	if err != nil {
		return err
	}
	rep.add("gcs.multicast_delivery_p50_us", "us", median(deliveries)/1e3, "64-byte multicast through the hub to one member, median of 3000")

	names := namesvc.NewServer()
	if err := names.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer names.Close()
	nc := namesvc.NewClient(names.Addr())
	for i := 1; i <= replicas; i++ {
		ior := giop.NewIOR("IDL:mead/TimeOfDay:1.0", "127.0.0.1", uint16(40000+i), giop.MakeObjectKey("timeofday", replica.ObjectName))
		if err := nc.Bind(fmt.Sprintf("timeofday/r%d", i), ior); err != nil {
			return err
		}
	}
	lists, err := timed(500, func() error {
		entries, err := nc.List("timeofday/")
		if err == nil && len(entries) != replicas {
			err = fmt.Errorf("namesvc: listed %d entries, want %d", len(entries), replicas)
		}
		return err
	})
	if err != nil {
		return err
	}
	rep.add("namesvc.list_us", "us", median(lists)/1e3, "List of 3 bindings, one connection per call, median of 500")
	resolves, err := timed(500, func() error {
		_, err := nc.Resolve("timeofday/r2")
		return err
	})
	if err != nil {
		return err
	}
	rep.add("namesvc.resolve_us", "us", median(resolves)/1e3, "Resolve of one binding, median of 500")
	return nil
}

// loopConn is an in-memory peer for the interceptor timings: reads serve an
// endless stream of one frame, writes are discarded.
type loopConn struct {
	frame []byte
	off   int
}

func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.frame[c.off:])
	c.off = (c.off + n) % len(c.frame)
	return n, nil
}

func (c *loopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *loopConn) Close() error                     { return nil }
func (c *loopConn) LocalAddr() net.Addr              { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 1} }
func (c *loopConn) RemoteAddr() net.Addr             { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 2} }
func (c *loopConn) SetDeadline(time.Time) error      { return nil }
func (c *loopConn) SetReadDeadline(time.Time) error  { return nil }
func (c *loopConn) SetWriteDeadline(time.Time) error { return nil }

// frameExchange times writing one frame to conn and reading one frame back.
func frameExchange(conn net.Conn, out []byte, inLen int) (float64, error) {
	in := make([]byte, inLen)
	var failed error
	ns := perOp(9, 20000, func() {
		if _, err := conn.Write(out); err != nil && failed == nil {
			failed = err
		}
		for got := 0; got < inLen && failed == nil; {
			n, err := conn.Read(in[got:])
			if err != nil {
				failed = err
			}
			got += n
		}
	})
	return ns, failed
}

// managerLab boots a fault-free deployment for the layers that only exist
// inside one: replica start-up, the FT manager's threshold check, and the
// interceptor hooks of both sides around a GIOP frame.
func managerLab(o options, rep *report) error {
	d, err := bootDeployment(workloads[0].scenario(o.seed, ""))
	if err != nil {
		return err
	}
	defer d.Close()

	// Probe replicas form a service of their own on the deployment's hub
	// and naming service, so the replicated service's view is untouched.
	cfg := replica.ServiceConfig{
		Service:   "meadbench-probe",
		HubAddr:   d.HubAddr(),
		NamesAddr: d.NamesAddr(),
		Scheme:    ftmgr.MeadMessage,
	}
	var probe *replica.Replica
	n := 0
	starts, err := timed(10, func() error {
		if probe != nil {
			probe.Stop()
		}
		// A fresh name each time: the hub refuses a name whose previous
		// connection it has not yet reaped.
		n++
		var err error
		if probe, err = replica.New(fmt.Sprintf("probe%d", n), cfg); err != nil {
			return err
		}
		return probe.Start()
	})
	if err != nil {
		return err
	}
	defer probe.Stop()
	rep.add("replica.start_ms", "ms", median(starts)/1e6, "replica.New + Start (GCS join, ORB listen, naming rebind, announce), median of 10")

	mgr := probe.Manager()
	rep.add("ftmgr.poll_thresholds_ns", "ns", perOp(9, 20000, func() {
		if mgr.PollThresholds() {
			sink++
		}
	}), "Manager.PollThresholds below both thresholds")

	hdr := giop.RequestHeader{
		RequestID:        1,
		ResponseExpected: true,
		ObjectKey:        giop.MakeObjectKey(cfg.Service, replica.ObjectName),
		Operation:        "time_of_day",
	}
	request := giop.EncodeRequest(cdr.BigEndian, hdr, func(e *cdr.Encoder) {
		e.WriteString("meadbench-client")
		e.WriteULongLong(42)
	})
	reply := giop.EncodeReply(cdr.BigEndian, giop.ReplyHeader{RequestID: 1, Status: giop.ReplyNoException}, func(e *cdr.Encoder) {
		e.WriteLongLong(1234567890)
		e.WriteULongLong(42)
		e.WriteString("probe")
	})
	cm, err := ftmgr.NewClientManager(ftmgr.ClientConfig{Scheme: ftmgr.MeadMessage})
	if err != nil {
		return err
	}
	bare, err := frameExchange(&loopConn{frame: reply}, request, len(reply))
	if err != nil {
		return err
	}
	hooked, err := frameExchange(cm.WrapClientConn(&loopConn{frame: reply}), request, len(reply))
	if err != nil {
		return err
	}
	rep.add("interceptor.client_hook_ns", "ns", hooked-bare, "request out + reply in through the MEAD client interceptor, minus the bare conn")
	bare, err = frameExchange(&loopConn{frame: request}, reply, len(request))
	if err != nil {
		return err
	}
	hooked, err = frameExchange(mgr.WrapServerConn(&loopConn{frame: request}), reply, len(request))
	if err != nil {
		return err
	}
	rep.add("interceptor.server_hook_ns", "ns", hooked-bare, "reply out + request in through the server interceptor with its threshold check, minus the bare conn")
	return nil
}

// durableLab times the durable store on its own.
func durableLab(o options, rep *report) error {
	dir, err := os.MkdirTemp(o.scratch, "durable-lab-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := durable.Config{Dir: filepath.Join(dir, "r1"), Replica: "r1"}
	store, _, err := durable.Open(cfg)
	if err != nil {
		return err
	}
	var op uint64
	next := func() durable.Op {
		op++
		return durable.Op{OpNumber: op, Counter: op, Client: "meadbench-client", ClientSeq: op}
	}

	var checkpoints []float64
	for i := 0; i < 10; i++ {
		for j := 0; j < 500; j++ {
			store.Append(next())
		}
		snap := durable.Snapshot{OpNumber: op, Counter: op, Dedup: []durable.DedupEntry{{Client: "meadbench-client", Seq: op, Counter: op}}}
		t0 := time.Now()
		store.Checkpoint(snap)
		store.Barrier()
		checkpoints = append(checkpoints, float64(time.Since(t0).Nanoseconds()))
	}
	rep.add("durable.checkpoint_ms", "ms", median(checkpoints)/1e6, "Checkpoint + Barrier: snapshot write, fsync, rename, log truncation; median of 10")

	var barriers []float64
	for i := 0; i < 10; i++ {
		for j := 0; j < 1000; j++ {
			store.Append(next())
		}
		t0 := time.Now()
		store.Barrier()
		barriers = append(barriers, float64(time.Since(t0).Nanoseconds()))
	}
	rep.add("durable.barrier_ms", "ms", median(barriers)/1e6, "Barrier behind 1000 queued appends, median of 10")

	const n = 50000
	_, w0, err := ioSyscalls()
	if err != nil {
		return err
	}
	appendNS := perOp(10, n/10, func() { store.Append(next()) })
	store.Barrier()
	_, w1, err := ioSyscalls()
	if err != nil {
		return err
	}
	rep.add("durable.append_ns", "ns", appendNS, "Store.Append on the caller's goroutine (encode + queue)")
	rep.add("durable.appends_per_sync", "count", n/(w1-w0), "appends per write system call of the group-committing writer (/proc/self/io)")
	rep.add("durable.dropped", "count", float64(store.Dropped()), "appends the store discarded")
	if err := store.Err(); err != nil {
		return fmt.Errorf("durable store: %w", err)
	}
	store.Close()

	t0 := time.Now()
	reopened, res, err := durable.Open(cfg)
	took := time.Since(t0)
	if err != nil {
		return err
	}
	reopened.Close()
	if res.Snap.OpNumber != op || res.Replayed == 0 {
		return fmt.Errorf("durable replay reached op %d after %d records, want op %d", res.Snap.OpNumber, res.Replayed, op)
	}
	rep.add("durable.replay_ops_per_s", "1/s", float64(res.Replayed)/took.Seconds(), fmt.Sprintf("Open replaying %d log records", res.Replayed))
	return nil
}

// durableDeploymentLab drives a durable deployment, then boots a second one
// over its state directory.
func durableDeploymentLab(o options, rep *report) error {
	w, _ := workloadByName("steady_pooled_durable")
	r, err := boot(w, o, nil)
	if err != nil {
		return err
	}
	defer r.close()
	before := r.d.Telemetry().CheckpointsPersisted.Value()
	win, err := r.drive(r.callers, time.Second)
	if err != nil {
		return err
	}
	persisted := r.d.Telemetry().CheckpointsPersisted.Value() - before
	rep.attempted += win.count
	rep.failed += win.failed
	rep.add("replica.checkpoints_per_s", "1/s", float64(persisted)/win.elapsed.Seconds(), "durable checkpoints the replicas persisted per second under 2 pooled callers")
	r.gate(rep)
	took, err := r.coldRestart(o, rep)
	if err != nil {
		return err
	}
	rep.add("durable.cold_restart_ms", "ms", float64(took.Nanoseconds())/1e6, "second deployment over the same state directory, boot to first correct reply")
	return nil
}

// schemeLab reproduces Table 1 from the benchmark: a short faulty pass under
// each of the five schemes. The MEAD pass also yields the hand-off timeline
// from the deployment's recovery-event trace.
func schemeLab(o options, rep *report) error {
	// Long enough to hold a dozen fail-overs even in the one-second smoke run.
	passDur := time.Duration(float64(o.seconds) * 0.08 * float64(time.Second))
	if passDur < 500*time.Millisecond {
		passDur = 500 * time.Millisecond
	}
	for _, scheme := range ftmgr.Schemes() {
		w := workload{name: "scheme " + scheme.String(), scheme: scheme, fault: true}
		r, err := boot(w, o, nil)
		if err != nil {
			return err
		}
		var events *eventLog
		tel := r.d.Telemetry()
		multicasts := tel.Multicasts.Value()
		if scheme == ftmgr.MeadMessage {
			events = watchEvents(tel)
		}
		win, err := r.drive(r.callers, passDur)
		if err != nil {
			return err
		}
		multicasts = tel.Multicasts.Value() - multicasts
		if events != nil {
			events.stop()
		}
		rep.attempted += win.count
		rep.failed += win.failed
		if r.tally.failed > 0 {
			rep.violate("%s: %d invocations returned an error", w.name, r.tally.failed)
		}
		r.close()
		failovers := win.refFailovers
		if len(failovers) == 0 {
			return fmt.Errorf("%s: no fail-over in %.1f s", w.name, passDur.Seconds())
		}
		note := fmt.Sprintf("%d fail-overs in a %.1f s pass, at reference speed", len(failovers), passDur.Seconds())
		rep.add("client.failover_p50_us."+scheme.String(), "us", median(failovers)/1e3, note)
		rep.add("client.failover_p90_us."+scheme.String(), "us", quantile(failovers, 0.90)/1e3, note)
		rep.add("client.steady_p50_us."+scheme.String(), "us", win.p50()/1e3, "median invocation of the same pass, at reference speed")
		if events != nil {
			toFailover, swap := events.handoffs()
			if len(toFailover) == 0 || len(swap) == 0 {
				return fmt.Errorf("%s: the recovery trace held no complete hand-off", w.name)
			}
			rep.add("ftmgr.threshold_to_failover_us", "us", median(toFailover)/1e3, fmt.Sprintf("threshold-crossed to mead-failover, median of %d hand-offs", len(toFailover)))
			rep.add("interceptor.swap_us", "us", median(swap)/1e3, "mead-failover to conn-swapped")
			rep.add("gcs.msgs_per_failover", "count", float64(multicasts)/float64(len(failovers)), "GCS deliveries per fail-over in the MEAD pass (checkpoints, notices, announcements)")
		}
	}
	return nil
}

// eventLog copies recovery events out of the deployment's trace ring while a
// pass runs: every request adds an event, so the ring turns over in a
// fraction of a second.
type eventLog struct {
	tel    *telemetry.Telemetry
	quit   chan struct{}
	done   chan struct{}
	seen   uint64
	events []telemetry.Event
}

func watchEvents(tel *telemetry.Telemetry) *eventLog {
	l := &eventLog{tel: tel, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		tick := time.NewTicker(40 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				l.collect()
			case <-l.quit:
				l.collect()
				return
			}
		}
	}()
	return l
}

func (l *eventLog) collect() {
	for _, ev := range l.tel.Events() {
		if ev.Seq <= l.seen {
			continue
		}
		l.seen = ev.Seq
		switch ev.Kind {
		case telemetry.EvThresholdCrossed, telemetry.EvMeadFailover, telemetry.EvConnSwapped:
			l.events = append(l.events, ev)
		}
	}
}

func (l *eventLog) stop() {
	close(l.quit)
	<-l.done
}

// handoffs returns, for every mead-failover event, the time since the last
// threshold crossing before it and the time to the next conn-swapped, ns.
func (l *eventLog) handoffs() (toFailover, swap []float64) {
	var crossed time.Duration
	haveCrossed := false
	for i, ev := range l.events {
		switch ev.Kind {
		case telemetry.EvThresholdCrossed:
			crossed, haveCrossed = ev.At, true
		case telemetry.EvMeadFailover:
			if haveCrossed {
				toFailover = append(toFailover, float64(ev.At-crossed))
				haveCrossed = false
			}
			for _, later := range l.events[i+1:] {
				if later.Kind == telemetry.EvMeadFailover {
					break
				}
				if later.Kind == telemetry.EvConnSwapped {
					swap = append(swap, float64(later.At-ev.At))
					break
				}
			}
		}
	}
	return toFailover, swap
}
