package orb

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"mead/internal/cdr"
	"mead/internal/giop"
)

// TestDispatchAllocatesNothingOnSuccess is the exact guard on the server's
// per-request path: decode the pooled message, dispatch to a servant that
// returns nil, encode and write the reply — 0 allocations, whichever way
// serveConn calls it: on the reader for a lone request, whose reply goes
// straight to the transport (solo), or on a dispatch goroutine, whose reply
// is queued and flushed last-writer-out. (The errors.As targets used to
// escape and cost two per request, error or not.)
func TestDispatchAllocatesNothingOnSuccess(t *testing.T) {
	for _, tc := range []struct {
		name string
		solo bool
	}{{"reader", true}, {"goroutine", false}} {
		t.Run(tc.name, func(t *testing.T) { testDispatchAllocatesNothing(t, tc.solo) })
	}
}

func testDispatchAllocatesNothing(t *testing.T, solo bool) {
	key := giop.MakeObjectKey("svc", "obj")
	s := NewServer()
	var servantErr error
	s.Register(key, ServantFunc(func(op string, args *cdr.Decoder, result *cdr.Encoder) error {
		result.WriteULong(42)
		return servantErr
	}))
	request := giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
		RequestID: 7, ResponseExpected: true, ObjectKey: key, Operation: "get",
	}, nil)
	conn := &recordingConn{}
	cw := &connWriter{conn: conn, solo: solo}
	src := bytes.NewReader(nil)
	dispatch := func() {
		src.Reset(request)
		conn.stream.Reset()
		h, mb, err := giop.ReadMessagePooled(src)
		if err != nil {
			t.Fatal(err)
		}
		hdr, args, err := giop.DecodeRequest(h.Order, mb.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		s.dispatchRequest(conn, cw, hdr, args, mb)
	}
	dispatch()
	if avg := testing.AllocsPerRun(1000, dispatch); avg != 0 && !raceEnabled {
		t.Fatalf("%v allocs per successful dispatch, want 0", avg)
	}
	if conn.writeCount() == 0 {
		t.Fatal("no reply was written")
	}

	// The error path still classifies: a servant's system exception is the
	// reply's, anything else becomes INTERNAL.
	for _, tc := range []struct {
		err  error
		repo string
	}{
		{giop.Transient(3, giop.CompletedNo), giop.RepoTransient},
		{errors.New("boom"), giop.RepoInternal},
	} {
		servantErr = tc.err
		dispatch()
		h, body, err := giop.ReadMessage(&conn.stream)
		if err != nil || h.Type != giop.MsgReply {
			t.Fatalf("%v: reply %+v, %v", tc.err, h, err)
		}
		rh, d, err := giop.DecodeReply(h.Order, body)
		if err != nil || rh.Status != giop.ReplySystemException {
			t.Fatalf("%v: status %v, %v", tc.err, rh.Status, err)
		}
		se, err := giop.DecodeSystemException(d)
		if err != nil || se.RepoID != tc.repo {
			t.Fatalf("%v: exception %+v, %v", tc.err, se, err)
		}
	}
}

// TestBufferedRequestsDispatchConcurrently: the reader runs a request itself
// only when nothing is buffered behind it. A [slow, fast] pair that arrives in
// one write is dispatched on goroutines, so the fast reply comes back while
// the slow servant is still gated — no head-of-line blocking within a burst.
func TestBufferedRequestsDispatchConcurrently(t *testing.T) {
	key := giop.MakeObjectKey("svc", "gated")
	gate := make(chan struct{})
	s := NewServer()
	s.Register(key, ServantFunc(func(op string, args *cdr.Decoder, result *cdr.Encoder) error {
		if op == "slow" {
			<-gate
		}
		result.WriteString(op)
		return nil
	}))
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	release := sync.OnceFunc(func() { close(gate) })
	defer release()

	request := func(id uint32, op string) []byte {
		return giop.EncodeRequest(cdr.BigEndian, giop.RequestHeader{
			RequestID: id, ResponseExpected: true, ObjectKey: key, Operation: op,
		}, nil)
	}
	conn := rawConn(t, s)
	send(t, conn, append(request(1, "slow"), request(2, "fast")...))
	if got := readEchoReply(t, conn, 2); got != "fast" {
		t.Fatalf("first reply carries %q, want fast", got)
	}
	release()
	if got := readEchoReply(t, conn, 1); got != "slow" {
		t.Fatalf("second reply carries %q, want slow", got)
	}
}
