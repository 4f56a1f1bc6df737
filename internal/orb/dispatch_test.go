package orb

import (
	"bytes"
	"errors"
	"testing"

	"mead/internal/cdr"
	"mead/internal/giop"
)

// TestDispatchAllocatesNothingOnSuccess is the exact guard on the server's
// per-request path: decode the pooled message, dispatch to a servant that
// returns nil, encode and write the reply — 0 allocations. (The errors.As
// targets used to escape and cost two per request, error or not.)
func TestDispatchAllocatesNothingOnSuccess(t *testing.T) {
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
	cw := &connWriter{conn: conn}
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
