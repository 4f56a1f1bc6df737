package orb

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
	"mead/internal/interceptor"
)

const typeID = "IDL:mead/TimeOfDay:1.0"

var clockKey = giop.MakeObjectKey("timeofday", "clock")

// echoServant implements time_of_day (returns a longlong) and echo.
type echoServant struct {
	calls atomic.Int64
	// called ticks once per invocation, letting tests of asynchronous
	// paths (oneway) wait on the event itself rather than poll the counter.
	called chan struct{}
}

func (s *echoServant) Invoke(op string, args *cdr.Decoder, result *cdr.Encoder) error {
	s.calls.Add(1)
	select {
	case s.called <- struct{}{}:
	default:
	}
	switch op {
	case "time_of_day":
		result.WriteLongLong(time.Now().UnixNano())
		return nil
	case "echo":
		v, err := args.ReadString()
		if err != nil {
			return err
		}
		result.WriteString(v)
		return nil
	case "sum64":
		a, err := args.ReadULongLong()
		if err != nil {
			return err
		}
		b, err := args.ReadULongLong()
		if err != nil {
			return err
		}
		result.WriteULongLong(a + b)
		return nil
	case "fail_user":
		return &UserException{RepoID: "IDL:mead/AppError:1.0"}
	case "fail_system":
		return giop.Transient(7, giop.CompletedNo)
	case "fail_plain":
		return errors.New("boom")
	default:
		return &giop.SystemException{RepoID: giop.RepoBadOperation, Completed: giop.CompletedNo}
	}
}

func startServer(t *testing.T, opts ...ServerOption) (*ServerORB, *echoServant) {
	t.Helper()
	s := NewServer(opts...)
	servant := &echoServant{called: make(chan struct{}, 64)}
	s.Register(clockKey, servant)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, servant
}

func objectFor(t *testing.T, s *ServerORB, copts ...ClientOption) *ObjectRef {
	t.Helper()
	ior, err := s.IORFor(typeID, clockKey)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(copts...)
	o := c.Object(ior)
	t.Cleanup(func() { _ = o.Close() })
	return o
}

func invokeTime(o *ObjectRef) (int64, error) {
	var ts int64
	err := o.Invoke("time_of_day", nil, func(d *cdr.Decoder) error {
		v, err := d.ReadLongLong()
		ts = v
		return err
	})
	return ts, err
}

func TestBasicInvocation(t *testing.T) {
	s, servant := startServer(t)
	o := objectFor(t, s)
	ts, err := invokeTime(o)
	if err != nil {
		t.Fatal(err)
	}
	if ts == 0 {
		t.Fatal("zero timestamp")
	}
	if servant.calls.Load() != 1 {
		t.Fatalf("servant calls = %d", servant.calls.Load())
	}
}

func TestEchoArgsRoundTrip(t *testing.T) {
	s, _ := startServer(t)
	o := objectFor(t, s)
	var got string
	err := o.Invoke("echo", func(e *cdr.Encoder) {
		e.WriteString("hello over GIOP")
	}, func(d *cdr.Decoder) error {
		v, err := d.ReadString()
		got = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello over GIOP" {
		t.Fatalf("echo = %q", got)
	}
}

func TestEightByteAlignedArgs(t *testing.T) {
	// Arguments and results with 8-byte alignment must survive the
	// header-then-body splice on both directions.
	s, _ := startServer(t)
	o := objectFor(t, s)
	var got uint64
	err := o.Invoke("sum64", func(e *cdr.Encoder) {
		e.WriteULongLong(1<<40 + 5)
		e.WriteULongLong(37)
	}, func(d *cdr.Decoder) error {
		v, err := d.ReadULongLong()
		got = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 1<<40+42 {
		t.Fatalf("sum = %d", got)
	}
}

func TestSequentialInvocationsReuseConnection(t *testing.T) {
	s, servant := startServer(t)
	o := objectFor(t, s)
	for i := 0; i < 20; i++ {
		if _, err := invokeTime(o); err != nil {
			t.Fatal(err)
		}
	}
	if servant.calls.Load() != 20 {
		t.Fatalf("servant calls = %d", servant.calls.Load())
	}
	if got := s.ActiveConnections(); got != 1 {
		t.Fatalf("active connections = %d, want 1", got)
	}
	st := o.Stats()
	if st.Invocations != 20 || st.Forwards != 0 || st.Retransmissions != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUserException(t *testing.T) {
	s, _ := startServer(t)
	o := objectFor(t, s)
	err := o.Invoke("fail_user", nil, nil)
	var ue *UserException
	if !errors.As(err, &ue) || ue.RepoID != "IDL:mead/AppError:1.0" {
		t.Fatalf("err = %v", err)
	}
}

func TestSystemExceptionFromServant(t *testing.T) {
	s, _ := startServer(t)
	o := objectFor(t, s)
	err := o.Invoke("fail_system", nil, nil)
	var se *giop.SystemException
	if !errors.As(err, &se) || se.RepoID != giop.RepoTransient || se.Minor != 7 {
		t.Fatalf("err = %v", err)
	}
}

func TestPlainErrorBecomesInternal(t *testing.T) {
	s, _ := startServer(t)
	o := objectFor(t, s)
	err := o.Invoke("fail_plain", nil, nil)
	var se *giop.SystemException
	if !errors.As(err, &se) || se.RepoID != giop.RepoInternal {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownObjectKey(t *testing.T) {
	s, _ := startServer(t)
	ior, err := s.IORFor(typeID, giop.MakeObjectKey("timeofday", "bogus"))
	if err != nil {
		t.Fatal(err)
	}
	o := NewClient().Object(ior)
	defer o.Close()
	callErr := o.Invoke("time_of_day", nil, nil)
	var se *giop.SystemException
	if !errors.As(callErr, &se) || se.RepoID != giop.RepoObjectNotExist {
		t.Fatalf("err = %v", callErr)
	}
}

func TestConnectRefusedRaisesTransient(t *testing.T) {
	// A reference to a dead endpoint (stale cache entry) raises TRANSIENT.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	ior, err := giop.NewIORForAddr(typeID, addr, clockKey)
	if err != nil {
		t.Fatal(err)
	}
	o := NewClient(WithDialTimeout(200 * time.Millisecond)).Object(ior)
	defer o.Close()
	callErr := o.Invoke("time_of_day", nil, nil)
	var se *giop.SystemException
	if !errors.As(callErr, &se) || se.RepoID != giop.RepoTransient {
		t.Fatalf("err = %v, want TRANSIENT", callErr)
	}
}

func TestLocationForwardTransparentRetransmit(t *testing.T) {
	// A front server that always LOCATION_FORWARDs to the real server; the
	// client application must observe a normal reply and no exception.
	real, servant := startServer(t)
	fwdIOR, err := real.IORFor(typeID, clockKey)
	if err != nil {
		t.Fatal(err)
	}

	front, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	go func() {
		conn, err := front.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		h, body, err := giop.ReadMessage(conn)
		if err != nil {
			return
		}
		hdr, _, err := giop.DecodeRequest(h.Order, body)
		if err != nil {
			return
		}
		reply := giop.EncodeReply(cdr.BigEndian,
			giop.ReplyHeader{RequestID: hdr.RequestID, Status: giop.ReplyLocationForward},
			func(e *cdr.Encoder) { giop.EncodeIOR(e, fwdIOR) })
		_, _ = conn.Write(reply)
	}()

	frontIOR, err := giop.NewIORForAddr(typeID, front.Addr().String(), clockKey)
	if err != nil {
		t.Fatal(err)
	}
	o := NewClient().Object(frontIOR)
	defer o.Close()
	if _, err := invokeTime(o); err != nil {
		t.Fatalf("forwarded invocation failed: %v", err)
	}
	if servant.calls.Load() != 1 {
		t.Fatalf("real servant calls = %d", servant.calls.Load())
	}
	st := o.Stats()
	if st.Forwards != 1 {
		t.Fatalf("forward count = %d", st.Forwards)
	}
	// The reference now points at the real server.
	gotAddr, _ := o.IOR().Addr()
	wantAddr, _ := fwdIOR.Addr()
	if gotAddr != wantAddr {
		t.Fatalf("reference addr = %s, want %s", gotAddr, wantAddr)
	}
}

func TestRedirectMovesReference(t *testing.T) {
	s1, servant1 := startServer(t)
	s2 := NewServer()
	servant2 := &echoServant{}
	s2.Register(clockKey, servant2)
	if err := s2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s2.Close() })

	o := objectFor(t, s1)
	if _, err := invokeTime(o); err != nil {
		t.Fatal(err)
	}
	ior2, err := s2.IORFor(typeID, clockKey)
	if err != nil {
		t.Fatal(err)
	}
	o.Redirect(ior2)
	if _, err := invokeTime(o); err != nil {
		t.Fatal(err)
	}
	if servant1.calls.Load() != 1 || servant2.calls.Load() != 1 {
		t.Fatalf("calls = %d/%d", servant1.calls.Load(), servant2.calls.Load())
	}
}

func TestConnClosedHook(t *testing.T) {
	var lastActive atomic.Int64
	closed := make(chan struct{}, 4)
	s, _ := startServer(t, WithConnClosedHook(func(active int) {
		lastActive.Store(int64(active))
		closed <- struct{}{}
	}))
	// A connection nobody speaks on is not active: it stays open throughout
	// and the count still reaches zero.
	idle, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	o := objectFor(t, s)
	if _, err := invokeTime(o); err != nil {
		t.Fatal(err)
	}
	if got := s.ActiveConnections(); got != 1 {
		t.Fatalf("active connections = %d with one idle and one used, want 1", got)
	}
	_ = o.Close()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("conn-closed hook never fired")
	}
	if lastActive.Load() != 0 {
		t.Fatalf("active after close = %d", lastActive.Load())
	}
}

func TestLittleEndianInterop(t *testing.T) {
	s, _ := startServer(t, WithServerByteOrder(cdr.LittleEndian))
	o := objectFor(t, s, WithClientByteOrder(cdr.LittleEndian))
	var got string
	err := o.Invoke("echo", func(e *cdr.Encoder) { e.WriteString("le") },
		func(d *cdr.Decoder) error {
			v, err := d.ReadString()
			got = v
			return err
		})
	if err != nil || got != "le" {
		t.Fatalf("echo = %q, %v", got, err)
	}
}

func TestServerDoubleCloseSafe(t *testing.T) {
	s, _ := startServer(t)
	_ = s.Close()
	_ = s.Close()
}

func TestIORForBeforeListen(t *testing.T) {
	s := NewServer()
	if _, err := s.IORFor(typeID, clockKey); err == nil {
		t.Fatal("IORFor before Listen succeeded")
	}
}

func TestStartBeforeListen(t *testing.T) {
	s := NewServer()
	if err := s.Start(); err == nil {
		t.Fatal("Start before Listen succeeded")
	}
}

func TestLocateObjectHere(t *testing.T) {
	s, _ := startServer(t)
	o := objectFor(t, s)
	status, err := o.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if status != giop.LocateObjectHere {
		t.Fatalf("status = %v, want OBJECT_HERE", status)
	}
}

func TestLocateUnknownObject(t *testing.T) {
	s, _ := startServer(t)
	ior, err := s.IORFor(typeID, giop.MakeObjectKey("timeofday", "missing"))
	if err != nil {
		t.Fatal(err)
	}
	o := NewClient().Object(ior)
	defer o.Close()
	status, err := o.Locate()
	if err != nil {
		t.Fatal(err)
	}
	if status != giop.LocateUnknownObject {
		t.Fatalf("status = %v, want UNKNOWN_OBJECT", status)
	}
}

func TestServerRejectsGarbageStream(t *testing.T) {
	s, _ := startServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GARBAGE-NOT-GIOP----")); err != nil {
		t.Fatal(err)
	}
	// The server drops the connection without crashing; subsequent
	// clients are unaffected.
	one := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(one); err == nil {
		t.Fatal("server kept a garbage connection open")
	}
	o := objectFor(t, s)
	if _, err := invokeTime(o); err != nil {
		t.Fatalf("server unusable after garbage stream: %v", err)
	}
}

func TestServerSendsMessageErrorOnCorruptRequest(t *testing.T) {
	s, _ := startServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid GIOP framing, corrupt Request body.
	msg := giop.EncodeMessage(cdr.BigEndian, giop.MsgRequest, []byte{0xFF, 0xFF, 0xFF})
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	h, _, err := giop.ReadMessage(conn)
	if err != nil {
		t.Fatalf("no MessageError received: %v", err)
	}
	if h.Type != giop.MsgMessageError {
		t.Fatalf("reply type = %v, want MessageError", h.Type)
	}
}

// TestServerRejectsUnknownMessageType sends frames whose type octet the
// server does not serve — 8, which an earlier wire format of this repo used
// for batch frames and old peers may still emit, and 0xFF — each wrapping a
// well-formed Request. The request must not be dispatched; the server
// answers MessageError and closes the connection.
func TestServerRejectsUnknownMessageType(t *testing.T) {
	for _, typ := range []giop.MsgType{8, 0xFF} {
		t.Run(typ.String(), func(t *testing.T) {
			s, _ := startServer(t)
			conn, err := net.Dial("tcp", s.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			inner := giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
				RequestID: 1, ResponseExpected: true, ObjectKey: clockKey, Operation: "time_of_day",
			}, nil)
			if _, err := conn.Write(giop.EncodeMessage(cdr.BigEndian, typ, inner)); err != nil {
				t.Fatal(err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			h, _, err := giop.ReadMessage(conn)
			if err != nil {
				t.Fatalf("no MessageError received: %v", err)
			}
			if h.Type != giop.MsgMessageError {
				t.Fatalf("reply type = %v, want MessageError", h.Type)
			}
			if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("read after MessageError = %v, want EOF", err)
			}
			if served := s.Served(); served != 0 {
				t.Fatalf("server dispatched %d requests out of the rejected frame", served)
			}
			if _, err := invokeTime(objectFor(t, s)); err != nil {
				t.Fatalf("server unusable after the rejected frame: %v", err)
			}
		})
	}
}

func TestConcurrentObjectRefs(t *testing.T) {
	// Multiple independent references (each its own connection) may
	// invoke concurrently against one server.
	s, servant := startServer(t)
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			ior, err := s.IORFor(typeID, clockKey)
			if err != nil {
				errs <- err
				return
			}
			o := NewClient().Object(ior)
			defer o.Close()
			for k := 0; k < 20; k++ {
				if _, err := invokeTime(o); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if servant.calls.Load() != n*20 {
		t.Fatalf("servant calls = %d, want %d", servant.calls.Load(), n*20)
	}
}

func TestFragmentedThroughInterceptorPassThrough(t *testing.T) {
	// A pass-through interceptor must forward fragmented streams intact.
	s := NewServer(WithServerMaxBodyBytes(100))
	servant := &echoServant{called: make(chan struct{}, 64)}
	s.Register(clockKey, servant)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	o := objectFor(t, s,
		WithClientMaxBodyBytes(100),
		WithClientConnWrapper(func(c net.Conn) net.Conn {
			return interceptor.New(c, interceptor.Hooks{})
		}))

	payload := strings.Repeat("x", 1500)
	var got string
	err := o.Invoke("echo", func(e *cdr.Encoder) { e.WriteString(payload) },
		func(d *cdr.Decoder) error {
			v, err := d.ReadString()
			got = v
			return err
		})
	if err != nil {
		t.Fatal(err)
	}
	if got != payload {
		t.Fatal("fragmented echo through interceptor corrupted")
	}
}
