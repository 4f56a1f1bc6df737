package mead

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
	"mead/internal/orb"
)

// benchScenario is the compressed workload used by the table/figure
// benches: ~60 ms of paced client traffic per iteration, with the leak
// crossing thresholds gradually as in the paper.
func benchScenario(scheme Scheme) Scenario {
	return Scenario{
		Scheme:      scheme,
		Invocations: 600,
		Period:      100 * time.Microsecond,
		InjectFault: true,
		Fault: FaultConfig{
			Tick:      time.Millisecond,
			ChunkUnit: 16,
			Seed:      2004,
		},
		RestartDelay:    20 * time.Millisecond,
		ProactiveDelay:  5 * time.Millisecond,
		CheckpointEvery: 10 * time.Millisecond,
		QueryTimeout:    20 * time.Millisecond,
	}
}

// runScheme drives one scenario per iteration and reports the Table 1
// metrics for the scheme.
func runScheme(b *testing.B, scheme Scheme) {
	b.Helper()
	var (
		steadyUS   float64
		failoverMS float64
		clientPct  float64
		serverFail float64
		bwBps      float64
	)
	for i := 0; i < b.N; i++ {
		sc := benchScenario(scheme)
		sc.Seed += int64(i)
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		steadyUS += float64(res.MeanSteadyRTT()) / float64(time.Microsecond)
		failoverMS += float64(res.MeanFailoverTime()) / float64(time.Millisecond)
		clientPct += res.ClientFailurePct()
		serverFail += float64(res.ServerFailures)
		bwBps += res.BandwidthBytesPerSec()
	}
	n := float64(b.N)
	b.ReportMetric(steadyUS/n, "rtt_us")
	b.ReportMetric(failoverMS/n, "failover_ms")
	b.ReportMetric(clientPct/n, "client_fail_pct")
	b.ReportMetric(serverFail/n, "server_failures")
	b.ReportMetric(bwBps/n, "group_Bps")
}

// Table 1 — one bench per recovery strategy (rows of the paper's table).

func BenchmarkTable1_ReactiveNoCache(b *testing.B) { runScheme(b, ReactiveNoCache) }
func BenchmarkTable1_ReactiveCache(b *testing.B)   { runScheme(b, ReactiveCache) }
func BenchmarkTable1_NeedsAddressing(b *testing.B) { runScheme(b, NeedsAddressing) }
func BenchmarkTable1_LocationForward(b *testing.B) { runScheme(b, LocationForward) }
func BenchmarkTable1_MeadMessage(b *testing.B)     { runScheme(b, MeadMessage) }

// Figure 3 — RTT-versus-invocation series for the two reactive schemes;
// the jitter metrics summarize the spike structure the figure plots.

func runSeriesBench(b *testing.B, scheme Scheme) {
	b.Helper()
	var outlierPct, maxSpikeMS, failovers float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(scheme)
		sc.Seed += int64(i)
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		j := res.Jitter()
		outlierPct += 100 * j.Fraction
		maxSpikeMS += float64(j.MaxSpike) / float64(time.Millisecond)
		failovers += float64(len(res.Failovers))
	}
	n := float64(b.N)
	b.ReportMetric(outlierPct/n, "outlier_pct")
	b.ReportMetric(maxSpikeMS/n, "max_spike_ms")
	b.ReportMetric(failovers/n, "failovers")
}

func BenchmarkFigure3_ReactiveNoCache(b *testing.B) { runSeriesBench(b, ReactiveNoCache) }
func BenchmarkFigure3_ReactiveCache(b *testing.B)   { runSeriesBench(b, ReactiveCache) }

// Figure 4 — RTT series for the three proactive schemes.

func BenchmarkFigure4_NeedsAddressing(b *testing.B) { runSeriesBench(b, NeedsAddressing) }
func BenchmarkFigure4_LocationForward(b *testing.B) { runSeriesBench(b, LocationForward) }
func BenchmarkFigure4_MeadMessage(b *testing.B)     { runSeriesBench(b, MeadMessage) }

// Figure 5 — group-communication bandwidth versus rejuvenation threshold
// for the two proactive schemes.

func runThresholdBench(b *testing.B, scheme Scheme, threshold float64) {
	b.Helper()
	var bwBps, restarts float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(scheme)
		sc.Seed += int64(i)
		sc.Threshold = threshold
		sc.LaunchThreshold = 0.75 * threshold
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		bwBps += res.BandwidthBytesPerSec()
		restarts += float64(res.ServerFailures)
	}
	n := float64(b.N)
	b.ReportMetric(bwBps/n, "group_Bps")
	b.ReportMetric(restarts/n, "restarts")
}

func BenchmarkFigure5_LocationForward_T20(b *testing.B) { runThresholdBench(b, LocationForward, 0.2) }
func BenchmarkFigure5_LocationForward_T40(b *testing.B) { runThresholdBench(b, LocationForward, 0.4) }
func BenchmarkFigure5_LocationForward_T60(b *testing.B) { runThresholdBench(b, LocationForward, 0.6) }
func BenchmarkFigure5_LocationForward_T80(b *testing.B) { runThresholdBench(b, LocationForward, 0.8) }
func BenchmarkFigure5_MeadMessage_T20(b *testing.B)     { runThresholdBench(b, MeadMessage, 0.2) }
func BenchmarkFigure5_MeadMessage_T40(b *testing.B)     { runThresholdBench(b, MeadMessage, 0.4) }
func BenchmarkFigure5_MeadMessage_T60(b *testing.B)     { runThresholdBench(b, MeadMessage, 0.6) }
func BenchmarkFigure5_MeadMessage_T80(b *testing.B)     { runThresholdBench(b, MeadMessage, 0.8) }

// Section 5.2.5 — jitter baseline without fault injection.

func BenchmarkJitter_FaultFree(b *testing.B) {
	var outlierPct, maxSpikeMS float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(ReactiveNoCache)
		sc.Seed += int64(i)
		res, err := RunFaultFree(sc)
		if err != nil {
			b.Fatal(err)
		}
		j := res.Jitter()
		outlierPct += 100 * j.Fraction
		maxSpikeMS += float64(j.MaxSpike) / float64(time.Millisecond)
	}
	n := float64(b.N)
	b.ReportMetric(outlierPct/n, "outlier_pct")
	b.ReportMetric(maxSpikeMS/n, "max_spike_ms")
}

// Ablation benches (DESIGN.md §6): the design choices the paper calls out.

// BenchmarkAblation_ObjectKeyHash16 measures the paper's 16-bit hash lookup
// against the byte-by-byte key comparison it replaced ("as opposed to a
// byte-by-byte comparison of the object key, which was typically 52 bytes").
func BenchmarkAblation_ObjectKeyHash16(b *testing.B) {
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = giop.MakeObjectKey("timeofday", fmt.Sprintf("obj-%d", i))
	}
	table := make(map[uint16]int, len(keys))
	for i, k := range keys {
		table[giop.Hash16(k)] = i
	}
	needle := keys[37]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := table[giop.Hash16(needle)]; !ok {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkAblation_ObjectKeyByteCompare(b *testing.B) {
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = giop.MakeObjectKey("timeofday", fmt.Sprintf("obj-%d", i))
	}
	needle := keys[37]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := -1
		for j, k := range keys {
			if bytes.Equal(k, needle) {
				found = j
				break
			}
		}
		if found < 0 {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkAblation_RequestParse contrasts the per-request costs behind the
// schemes' overheads: the LOCATION_FORWARD scheme's full request parse
// versus the NEEDS_ADDRESSING scheme's request-id-only parse versus the
// MEAD scheme's frame-type check (no parse at all).
func BenchmarkAblation_RequestParse_Full(b *testing.B) {
	msg := giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
		RequestID:        42,
		ResponseExpected: true,
		ObjectKey:        giop.MakeObjectKey("timeofday", "clock"),
		Operation:        "time_of_day",
	}, nil)
	body := msg[giop.HeaderLen:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := giop.DecodeRequest(cdr.BigEndian, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_RequestParse_IDOnly(b *testing.B) {
	msg := giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
		RequestID:        42,
		ResponseExpected: true,
		ObjectKey:        giop.MakeObjectKey("timeofday", "clock"),
		Operation:        "time_of_day",
	}, nil)
	body := msg[giop.HeaderLen:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := giop.RequestIDOf(cdr.BigEndian, body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_RequestParse_MagicOnly(b *testing.B) {
	msg := giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{RequestID: 42}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := giop.ParseHeader(msg[:giop.HeaderLen]); err != nil {
			b.Fatal(err)
		}
	}
}

// Protocol micro-benches: the marshalling costs under everything else.

func BenchmarkGIOPRequestEncode(b *testing.B) {
	hdr := giop.RequestHeader{
		RequestID:        1,
		ResponseExpected: true,
		ObjectKey:        giop.MakeObjectKey("timeofday", "clock"),
		Operation:        "time_of_day",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = giop.EncodeRequest(cdr.BigEndian, hdr, nil)
	}
}

// BenchmarkGIOPRequestDecode measures the steady-state server-side receive
// cost: parse a Request body with the pooled decoder, borrow the object key,
// intern the operation name, release. The zero-allocation receive path
// targets 0 allocs/op here (≤2 is the acceptance bound).
func BenchmarkGIOPRequestDecode(b *testing.B) {
	msg := giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
		RequestID:        1,
		ResponseExpected: true,
		ObjectKey:        giop.MakeObjectKey("timeofday", "clock"),
		Operation:        "time_of_day",
	}, nil)
	body := msg[giop.HeaderLen:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, d, err := giop.DecodeRequest(cdr.BigEndian, body)
		if err != nil {
			b.Fatal(err)
		}
		d.Release()
	}
}

// BenchmarkGIOPReplyDecode is the client-side mirror: parse a Reply body and
// read the result payload from the borrowed argument stream.
func BenchmarkGIOPReplyDecode(b *testing.B) {
	msg := giop.EncodeReply(cdr.BigEndian, giop.ReplyHeader{
		RequestID: 1,
		Status:    giop.ReplyNoException,
	}, func(e *cdr.Encoder) { e.WriteLongLong(1234567890) })
	body := msg[giop.HeaderLen:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, d, err := giop.DecodeReply(cdr.BigEndian, body)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.ReadLongLong(); err != nil {
			b.Fatal(err)
		}
		d.Release()
	}
}

func BenchmarkIORStringRoundTrip(b *testing.B) {
	ior := giop.NewIOR("IDL:mead/TimeOfDay:1.0", "127.0.0.1", 40001,
		giop.MakeObjectKey("timeofday", "clock"))
	s := ior.String()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := giop.ParseIOR(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_AdaptiveThresholds measures the future-work extension
// against the preset-threshold configuration.
func BenchmarkAblation_AdaptiveThresholds(b *testing.B) {
	var failoverMS, clientPct float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(MeadMessage)
		sc.Seed += int64(i)
		sc.AdaptiveLeadTime = 5 * time.Millisecond
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		failoverMS += float64(res.MeanFailoverTime()) / float64(time.Millisecond)
		clientPct += res.ClientFailurePct()
	}
	n := float64(b.N)
	b.ReportMetric(failoverMS/n, "failover_ms")
	b.ReportMetric(clientPct/n, "client_fail_pct")
}

// BenchmarkMultiClient_MeadMessage exercises "the migration of all its
// current clients": four concurrent clients handed off per rejuvenation.
func BenchmarkMultiClient_MeadMessage(b *testing.B) {
	var clientPct, totalFailovers float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(MeadMessage)
		sc.Seed += int64(i)
		sc.Clients = 4
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		clientPct += res.ClientFailurePct()
		totalFailovers += float64(res.TotalFailovers)
	}
	n := float64(b.N)
	b.ReportMetric(clientPct/n, "client_fail_pct")
	b.ReportMetric(totalFailovers/n, "total_failovers")
}

// BenchmarkAblation_ObjectTableScaling measures the paper's prediction that
// the LOCATION_FORWARD scheme's per-object IOR bookkeeping grows with the
// number of objects a server hosts ("we expect that as the server supports
// more objects, the overhead of the GIOP LOCATION_FORWARD scheme will
// increase significantly above the rest since it maintains an IOR entry for
// each object instantiated").
func runObjectScalingBench(b *testing.B, objects int) {
	b.Helper()
	var steadyUS, announceBytes float64
	for i := 0; i < b.N; i++ {
		sc := benchScenario(LocationForward)
		sc.Seed += int64(i)
		sc.Invocations = 300
		sc.Objects = objects
		res, err := Run(sc)
		if err != nil {
			b.Fatal(err)
		}
		steadyUS += float64(res.MeanSteadyRTT()) / float64(time.Microsecond)
		announceBytes += float64(res.GroupBytes)
	}
	n := float64(b.N)
	b.ReportMetric(steadyUS/n, "rtt_us")
	b.ReportMetric(announceBytes/n, "group_bytes")
}

func BenchmarkAblation_ObjectTable_1(b *testing.B)   { runObjectScalingBench(b, 1) }
func BenchmarkAblation_ObjectTable_64(b *testing.B)  { runObjectScalingBench(b, 64) }
func BenchmarkAblation_ObjectTable_512(b *testing.B) { runObjectScalingBench(b, 512) }

// BenchmarkSerializedInvocations vs BenchmarkPipelinedInvocations measure
// what sharing a connection buys: N concurrent callers share one reference
// to one replica. On a plain ORB the reference owns its connection and every
// invocation queues behind the reference's mutex; under WithConnectionPool
// the same single TCP connection carries N concurrent in-flight requests
// matched to their callers by request id.
func runInvocationBench(b *testing.B, callers int, pooled bool, copts ...orb.ClientOption) {
	b.Helper()
	runInvocationBenchServant(b, callers, pooled, orb.ServantFunc(func(op string, args *cdr.Decoder, result *cdr.Encoder) error {
		result.WriteLongLong(time.Now().UnixNano())
		return nil
	}), copts...)
}

// runInvocationBenchServant is runInvocationBench with a caller-supplied
// servant, so benches can put extra server-side work (durable logging) on
// the dispatch path.
func runInvocationBenchServant(b *testing.B, callers int, pooled bool, servant orb.Servant, copts ...orb.ClientOption) {
	b.Helper()
	key := giop.MakeObjectKey("bench", "clock")
	s := orb.NewServer()
	s.Register(key, servant)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ior, err := s.IORFor("IDL:mead/TimeOfDay:1.0", key)
	if err != nil {
		b.Fatal(err)
	}

	if pooled {
		copts = append(copts, orb.WithConnectionPool())
	}
	c := orb.NewClient(copts...)
	defer c.Close()
	o := c.Object(ior)
	defer o.Close()

	invoke := func() error {
		return o.Invoke("time_of_day", nil, func(d *cdr.Decoder) error {
			_, err := d.ReadLongLong()
			return err
		})
	}
	if err := invoke(); err != nil { // warm the connection
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Int64
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				if err := invoke(); err != nil {
					failed.Add(1)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	if failed.Load() != 0 {
		b.Fatalf("%d callers failed", failed.Load())
	}
}

func BenchmarkSerializedInvocations(b *testing.B) {
	for _, callers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%d", callers), func(b *testing.B) {
			runInvocationBench(b, callers, false)
		})
	}
}

func BenchmarkPipelinedInvocations(b *testing.B) {
	for _, callers := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("%d", callers), func(b *testing.B) {
			runInvocationBench(b, callers, true)
		})
	}
}
