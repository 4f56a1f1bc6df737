package namesvc

import (
	"encoding/hex"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"mead/internal/cdr"
	"mead/internal/frame"
	"mead/internal/giop"
)

// recConn records what a connection carried and how many transport calls
// carried it.
type recConn struct {
	net.Conn
	mu       sync.Mutex
	up, down []byte
	writes   int
	reads    int // Read calls that returned data
}

func (c *recConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.up = append(c.up, p...)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	if n > 0 {
		c.reads++
		c.down = append(c.down, p[:n]...)
	}
	c.mu.Unlock()
	return n, err
}

// take returns what the connection carried since the last take, and in how
// many transport calls.
func (c *recConn) take() (up, down []byte, writes, reads int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	up, down, writes, reads = c.up, c.down, c.writes, c.reads
	c.up, c.down, c.writes, c.reads = nil, nil, 0, 0
	return
}

// dialLog counts a recording client's dials, failed ones included, and
// holds the connections they produced, in order.
type dialLog struct {
	mu       sync.Mutex
	attempts int
	conns    []*recConn
}

func (l *dialLog) dials() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.attempts
}

func (l *dialLog) last() *recConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[len(l.conns)-1]
}

// recordingClient returns a client whose connections are recConns, logged
// as they are dialed.
func recordingClient(t *testing.T, addr string) (*Client, *dialLog) {
	log := &dialLog{}
	c := NewClient(addr)
	c.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		log.mu.Lock()
		defer log.mu.Unlock()
		log.attempts++
		if err != nil {
			return nil, err
		}
		rc := &recConn{Conn: conn}
		log.conns = append(log.conns, rc)
		return rc, nil
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, log
}

// TestNamingSessionDialsOnce: the first call dials and every call after it
// reuses that connection; each request leaves in one transport write and
// each reply, however many bindings it lists, arrives in one read.
func TestNamingSessionDialsOnce(t *testing.T) {
	s, _ := startServer(t)
	c, log := recordingClient(t, s.Addr())
	check := func(op string) {
		t.Helper()
		if n := log.dials(); n != 1 {
			t.Fatalf("%s: %d dials so far, want 1", op, n)
		}
		if _, _, writes, reads := log.last().take(); writes != 1 || reads != 1 {
			t.Errorf("%s: %d writes, %d reads, want 1 and 1", op, writes, reads)
		}
	}
	for i := uint16(1); i <= 3; i++ {
		if err := c.Rebind("timeofday/r"+string(rune('0'+i)), testIOR(7000+i)); err != nil {
			t.Fatal(err)
		}
		check("rebind")
	}
	entries, err := c.List("timeofday/")
	if err != nil || len(entries) != 3 {
		t.Fatalf("list: %d entries, %v", len(entries), err)
	}
	check("list")
	if _, err := c.Resolve("timeofday/r2"); err != nil {
		t.Fatal(err)
	}
	check("resolve")
}

// scriptConn feeds a server loop one request per Read and reports each
// transport write.
type scriptConn struct {
	net.Conn
	requests chan []byte
	wrote    chan int
}

func (c *scriptConn) Read(p []byte) (int, error) {
	req, ok := <-c.requests
	if !ok {
		return 0, io.EOF
	}
	return copy(p, req), nil
}

func (c *scriptConn) Write(p []byte) (int, error)     { c.wrote <- len(p); return len(p), nil }
func (c *scriptConn) Close() error                    { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error { return nil }

// TestFramePathsDoNotAllocatePerFrame: the server loop reads requests
// through its reader's buffer and answers from one pooled encoder, one
// write per reply. (A request that names something costs the name string
// handle copies out; resolving the empty name isolates the framing.)
func TestFramePathsDoNotAllocatePerFrame(t *testing.T) {
	s := NewServer()
	conn := &scriptConn{requests: make(chan []byte), wrote: make(chan int, 1)}
	done := make(chan struct{})
	go func() { defer close(done); s.serveConn(conn) }()
	e := cdr.NewEncoder(cdr.BigEndian)
	frame.Begin(e)
	e.WriteOctet(opResolve)
	e.WriteString("")
	req, err := frame.Finish(e)
	if err != nil {
		t.Fatal(err)
	}
	exchange := func() {
		conn.requests <- req
		if n := <-conn.wrote; n != frame.PrefixLen+1 {
			t.Fatalf("reply of %d bytes, want a bare not-found status", n)
		}
	}
	exchange()
	if avg := testing.AllocsPerRun(500, exchange); avg != 0 {
		t.Fatalf("naming server loop: %v allocs per request, want 0", avg)
	}
	close(conn.requests)
	<-done
}

// parentConversations were recorded at ISSUE 18's parent commit through a
// byte-level proxy (request bytes, reply bytes per call), one connection per
// call. The same calls over ONE session must put the same bytes on the wire,
// and the parent's replies must decode.
var parentConversations = []struct{ op, up, down string }{
	{"bind", "000000c7010000000000000d74696d656f666461792f723100000000000000ab494f523a3030303030303030303030303030313734393434346333613664363536313634326635343639366436353466363634343631373933613331326533303030303030303030303030313030303030303030303030303030323730303031303030303030303030303061333133323337326533303265333032653331303030666131303030303030306637343639366436353666363636343631373932663633366336663633366200", "0000000101"},
	{"bind-dup", "000000c7010000000000000d74696d656f666461792f723100000000000000ab494f523a3030303030303030303030303030313734393434346333613664363536313634326635343639366436353466363634343631373933613331326533303030303030303030303030313030303030303030303030303030323730303031303030303030303030303061333133323337326533303265333032653331303030666131303030303030306637343639366436353666363636343631373932663633366336663633366200", "00000024030000000000001c6e616d657376633a206e616d6520616c726561647920626f756e6400"},
	{"rebind", "000000c7020000000000000d74696d656f666461792f723200000000000000ab494f523a3030303030303030303030303030313734393434346333613664363536313634326635343639366436353466363634343631373933613331326533303030303030303030303030313030303030303030303030303030323730303031303030303030303030303061333133323337326533303265333032653331303030666132303030303030306637343639366436353666363636343631373932663633366336663633366200", "0000000101"},
	{"resolve", "00000015030000000000000d74696d656f666461792f723200", "000000b301000000000000ab494f523a3030303030303030303030303030313734393434346333613664363536313634326635343639366436353466363634343631373933613331326533303030303030303030303030313030303030303030303030303030323730303031303030303030303030303061333133323337326533303265333032653331303030666132303030303030306637343639366436353666363636343631373932663633366336663633366200"},
	{"resolve-missing", "00000015030000000000000d74696d656f666461792f723900", "0000000102"},
	{"list", "00000013050000000000000b74696d656f666461792f00", "0000018f01000000000000020000000d74696d656f666461792f723100000000000000ab494f523a3030303030303030303030303030313734393434346333613664363536313634326635343639366436353466363634343631373933613331326533303030303030303030303030313030303030303030303030303030323730303031303030303030303030303061333133323337326533303265333032653331303030666131303030303030306637343639366436353666363636343631373932663633366336663633366200000000000d74696d656f666461792f723200000000000000ab494f523a3030303030303030303030303030313734393434346333613664363536313634326635343639366436353466363634343631373933613331326533303030303030303030303030313030303030303030303030303030323730303031303030303030303030303061333133323337326533303265333032653331303030666132303030303030306637343639366436353666363636343631373932663633366336663633366200"},
	{"unbind", "00000015040000000000000d74696d656f666461792f723100", "0000000101"},
}

func TestWireBytesMatchParent(t *testing.T) {
	s, _ := startServer(t)
	c, log := recordingClient(t, s.Addr())
	ior := func(port uint16) giop.IOR {
		return giop.NewIOR("IDL:mead/TimeOfDay:1.0", "127.0.0.1", port, []byte("timeofday/clock"))
	}
	steps := map[string]func(){
		"bind":            func() { _ = c.Bind("timeofday/r1", ior(4001)) },
		"bind-dup":        func() { _ = c.Bind("timeofday/r1", ior(4001)) },
		"rebind":          func() { _ = c.Rebind("timeofday/r2", ior(4002)) },
		"resolve":         func() { _, _ = c.Resolve("timeofday/r2") },
		"resolve-missing": func() { _, _ = c.Resolve("timeofday/r9") },
		"list":            func() { _, _ = c.List("timeofday/") },
		"unbind":          func() { _ = c.Unbind("timeofday/r1") },
	}
	for _, want := range parentConversations {
		steps[want.op]()
		up, down, _, _ := log.last().take()
		if got := hex.EncodeToString(up); got != want.up {
			t.Errorf("%s request: %s, parent sent %s", want.op, got, want.up)
		}
		if got := hex.EncodeToString(down); got != want.down {
			t.Errorf("%s reply: %s, parent sent %s", want.op, got, want.down)
		}
	}
	if n := log.dials(); n != 1 {
		t.Errorf("%d dials for %d calls, want 1", n, len(parentConversations))
	}
}
