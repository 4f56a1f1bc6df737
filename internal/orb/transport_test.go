package orb

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/giop"
)

// stubServer accepts connections and hands each to serve, with the stub's own
// IOR; serve returns when it is done with the connection.
func stubServer(t *testing.T, serve func(self giop.IOR, conn net.Conn)) giop.IOR {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	ior, err := giop.NewIORForAddr(typeID, ln.Addr().String(), clockKey)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(ior, conn)
			}()
		}
	}()
	return ior
}

// readRequest reads one Request off a stub's connection.
func readRequest(conn net.Conn) (giop.RequestHeader, bool) {
	h, body, err := giop.ReadMessage(conn)
	if err != nil || h.Type != giop.MsgRequest {
		return giop.RequestHeader{}, false
	}
	hdr, _, err := giop.DecodeRequest(h.Order, body)
	return hdr, err == nil
}

// transports are the two ways a reference can hold its connection.
var transports = []struct {
	name string
	opts []ClientOption
}{
	{"private", nil},
	{"shared", []ClientOption{WithConnectionPool()}},
}

// binder makes the reference a case drives, on the transport under test.
type binder func(ior giop.IOR, opts ...ClientOption) *ObjectRef

func isCommFailure(err error) bool {
	var se *giop.SystemException
	return errors.As(err, &se) && se.RepoID == giop.RepoCommFailure
}

// TestOneTransport runs the single-caller cases against both ways a reference
// can hold its connection: as its only owner, and shared under
// WithConnectionPool. The code under them is the same; what differs is who
// else may be on the connection, so each case must come out the same.
func TestOneTransport(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, bind binder)
	}{
		{"crash raises COMM_FAILURE mid-stream", func(t *testing.T, bind binder) {
			s, _ := startServer(t)
			ior, _ := s.IORFor(typeID, clockKey)
			o := bind(ior)
			if _, err := invokeTime(o); err != nil {
				t.Fatal(err)
			}
			s.Crash()
			// Nobody is on the connection while it is idle, so nobody saw it
			// die: the first call after finds out, and says so.
			if _, err := invokeTime(o); !isCommFailure(err) {
				t.Fatalf("post-crash err = %v, want COMM_FAILURE", err)
			}
		}},
		{"corrupt reply rejected", func(t *testing.T, bind binder) {
			ior := stubServer(t, func(_ giop.IOR, conn net.Conn) {
				if _, ok := readRequest(conn); !ok {
					return
				}
				// Valid framing, corrupt Reply body.
				_, _ = conn.Write(giop.EncodeMessage(cdr.BigEndian, giop.MsgReply, []byte{1, 2}))
			})
			if err := bind(ior).Invoke("time_of_day", nil, nil); err == nil {
				t.Fatal("corrupt reply accepted")
			}
		}},
		{"stale replies dropped", func(t *testing.T, bind binder) {
			// Ahead of each answer come forty replies to ids nobody is waiting
			// on — the late answer to a request already given up, a
			// wire-duplicated frame. They carry the id precisely so they can
			// be discarded, however many there are.
			ior := stubServer(t, func(_ giop.IOR, conn net.Conn) {
				for {
					hdr, ok := readRequest(conn)
					if !ok {
						return
					}
					for i := uint32(1); i <= 41; i++ {
						id := hdr.RequestID + 1000*(41-i) // the last one is the answer
						reply := giop.EncodeReply(cdr.BigEndian, giop.ReplyHeader{RequestID: id, Status: giop.ReplyNoException},
							func(e *cdr.Encoder) { e.WriteString(strings.Repeat("x", int(41-i))) })
						if _, err := conn.Write(reply); err != nil {
							return
						}
					}
				}
			})
			o := bind(ior)
			for i := 0; i < 3; i++ {
				if got, err := invokeEcho(o, "ignored"); err != nil || got != "" {
					t.Fatalf("call %d = %q, %v; want the empty string of the one matching reply", i, got, err)
				}
			}
		}},
		{"fragmented request and reply", func(t *testing.T, bind binder) {
			s, _ := startServer(t, WithServerMaxBodyBytes(128))
			ior, _ := s.IORFor(typeID, clockKey)
			o := bind(ior, WithClientMaxBodyBytes(128))
			payload := strings.Repeat("fragmentation!", 200) // ~2.8 KB
			if got, err := invokeEcho(o, payload); err != nil || got != payload {
				t.Fatalf("fragmented echo: %d bytes back, %v; want %d", len(got), err, len(payload))
			}
		}},
		{"locate against dead server", func(t *testing.T, bind binder) {
			s, _ := startServer(t)
			ior, _ := s.IORFor(typeID, clockKey)
			o := bind(ior)
			if status, err := o.Locate(); err != nil || status != giop.LocateObjectHere {
				t.Fatalf("locate = %v, %v; want OBJECT_HERE", status, err)
			}
			s.Crash()
			if _, err := o.Locate(); !isCommFailure(err) {
				t.Fatalf("locate against dead server = %v, want COMM_FAILURE", err)
			}
		}},
		{"oneway", func(t *testing.T, bind binder) {
			s, servant := startServer(t)
			ior, _ := s.IORFor(typeID, clockKey)
			o := bind(ior)
			if err := o.InvokeOneWay("time_of_day", nil); err != nil {
				t.Fatal(err)
			}
			// Oneway has no reply; a subsequent two-way call on the same
			// connection confirms the stream stayed aligned.
			if _, err := invokeTime(o); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				select {
				case <-servant.called:
				case <-time.After(5 * time.Second):
					t.Fatalf("servant calls = %d, want 2", servant.calls.Load())
				}
			}
			if st := o.Stats(); st.Invocations != 2 {
				t.Fatalf("stats = %+v", st)
			}
			if got := s.ActiveConnections(); got != 1 {
				t.Fatalf("the two calls used %d connections, want 1", got)
			}
		}},
		{"forward loop bounded", func(t *testing.T, bind binder) {
			// A server that forwards to itself forever must not loop: the ORB
			// gives up after maxForwards and raises COMM_FAILURE.
			selfIOR := stubServer(t, func(self giop.IOR, conn net.Conn) {
				for {
					hdr, ok := readRequest(conn)
					if !ok {
						return
					}
					reply := giop.EncodeReply(cdr.BigEndian,
						giop.ReplyHeader{RequestID: hdr.RequestID, Status: giop.ReplyLocationForward},
						func(e *cdr.Encoder) { giop.EncodeIOR(e, self) })
					if _, err := conn.Write(reply); err != nil {
						return
					}
				}
			})
			o := bind(selfIOR, WithMaxForwards(3))
			if err := o.Invoke("time_of_day", nil, nil); !isCommFailure(err) {
				t.Fatalf("err = %v, want COMM_FAILURE after forward limit", err)
			}
			if st := o.Stats(); st.Forwards != 4 { // attempts 0..3 each forwarded
				t.Fatalf("forwards = %d", st.Forwards)
			}
		}},
	}
	for _, tc := range cases {
		for _, tr := range transports {
			t.Run(tc.name+"/"+tr.name, func(t *testing.T) {
				tc.run(t, func(ior giop.IOR, opts ...ClientOption) *ObjectRef {
					c := NewClient(append(opts, tr.opts...)...)
					o := c.Object(ior)
					t.Cleanup(func() { _ = o.Close(); _ = c.Close() })
					return o
				})
			})
		}
	}
}
