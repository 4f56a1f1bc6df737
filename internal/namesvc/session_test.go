package namesvc

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mead/internal/frame"
	"mead/internal/telemetry"
)

// waitSessions waits until the server is serving n connections.
func waitSessions(t *testing.T, s *Server, n int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		got := len(s.conns)
		s.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server has %d sessions, want %d", got, n)
		}
	}
}

// expireSessions does to every session what the idle deadline does: the
// server closes its end.
func expireSessions(t *testing.T, s *Server) {
	t.Helper()
	s.mu.Lock()
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	waitSessions(t, s, 0)
}

func TestStaleSessionRedialsOnce(t *testing.T) {
	t.Run("server restarted on the same address", func(t *testing.T) {
		s1, _ := startServer(t)
		addr := s1.Addr()
		c, log := recordingClient(t, addr)
		if err := c.Rebind("s/r1", testIOR(1)); err != nil {
			t.Fatal(err)
		}
		_ = s1.Close()
		s2 := NewServer()
		if err := s2.Start(addr); err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if err := c.Rebind("s/r1", testIOR(2)); err != nil {
			t.Fatalf("first call after the restart: %v", err)
		}
		if _, err := c.Resolve("s/r1"); err != nil {
			t.Fatal(err)
		}
		if log.dials() != 2 {
			t.Fatalf("%d dials, want the session's and one redial", log.dials())
		}
	})
	t.Run("server closed the idle session", func(t *testing.T) {
		s, _ := startServer(t)
		c, log := recordingClient(t, s.Addr())
		if err := c.Rebind("s/r1", testIOR(1)); err != nil {
			t.Fatal(err)
		}
		for i, call := range []func() error{
			func() error { _, err := c.List("s/"); return err },
			func() error { _, err := c.Resolve("s/r1"); return err },
			func() error { return c.Rebind("s/r1", testIOR(2)) },
			func() error { return c.Unbind("s/r1") },
		} {
			expireSessions(t, s)
			if err := call(); err != nil {
				t.Fatalf("call %d on an expired session: %v", i, err)
			}
			if want := 2 + i; log.dials() != want {
				t.Fatalf("call %d: %d dials so far, want %d", i, log.dials(), want)
			}
		}
	})
	t.Run("server gone", func(t *testing.T) {
		s, _ := startServer(t)
		c, log := recordingClient(t, s.Addr())
		if err := c.Rebind("s/r1", testIOR(1)); err != nil {
			t.Fatal(err)
		}
		_ = s.Close()
		if _, err := c.Resolve("s/r1"); err == nil {
			t.Fatal("resolve against a closed server succeeded")
		}
		if log.dials() != 2 {
			t.Fatalf("%d dials, want the session's and one failed redial", log.dials())
		}
		if _, err := c.Resolve("s/r1"); err == nil || log.dials() != 3 {
			t.Fatalf("a call without a session: err %v after %d dials, want one failed dial more", err, log.dials())
		}
	})
	t.Run("Bind is not resent", func(t *testing.T) {
		s, _ := startServer(t)
		c, log := recordingClient(t, s.Addr())
		if err := c.Rebind("s/r1", testIOR(1)); err != nil {
			t.Fatal(err)
		}
		expireSessions(t, s)
		if err := c.Bind("s/r2", testIOR(2)); err == nil {
			t.Fatal("Bind on an expired session succeeded: it was resent")
		}
		if log.dials() != 1 {
			t.Fatalf("%d dials, want none for the failed Bind", log.dials())
		}
		if _, err := c.Resolve("s/r2"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("resolve after the failed Bind: %v, want ErrNotFound", err)
		}
		if log.dials() != 2 {
			t.Fatalf("%d dials, want a fresh session for the next call", log.dials())
		}
	})
}

// scriptedServer accepts naming connections and answers the i-th request of
// each as script[i] says: "ok" replies with a bare OK status, "cut" writes
// half a length prefix and closes, "silent" never answers.
func scriptedServer(t *testing.T, script ...string) (addr string, accepted func() int) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	t.Cleanup(func() {
		_ = ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range conns {
			_ = conn.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			go func() {
				rd := frame.NewReader(conn)
				for _, step := range script {
					if _, err := rd.Next(); err != nil {
						return
					}
					switch step {
					case "ok":
						_, _ = conn.Write([]byte{0, 0, 0, 1, stOK})
					case "cut":
						_, _ = conn.Write([]byte{0, 0})
						_ = conn.Close()
						return
					case "silent":
					}
				}
			}()
		}
	}()
	return ln.Addr().String(), func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(conns)
	}
}

// TestBegunOrLateReplyIsNotResent: a session that dies after reply bytes
// arrived, or a server that does not answer in time, is not a stale session
// — the request may have been executed, and is not sent again.
func TestBegunOrLateReplyIsNotResent(t *testing.T) {
	for _, second := range []string{"cut", "silent"} {
		t.Run(second, func(t *testing.T) {
			addr, accepted := scriptedServer(t, "ok", second)
			c := NewClient(addr)
			defer c.Close()
			c.timeout = 50 * time.Millisecond
			if err := c.Unbind("s/r1"); err != nil {
				t.Fatal(err)
			}
			err := c.Unbind("s/r1")
			if err == nil {
				t.Fatal("second call succeeded")
			}
			if second == "silent" && !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("unanswered call failed with %v, want a timeout", err)
			}
			if n := accepted(); n != 1 {
				t.Fatalf("server saw %d connections, want 1: the request was resent", n)
			}
			// The broken session is gone; the next call starts a new one.
			if err := c.Unbind("s/r1"); err != nil || accepted() != 2 {
				t.Fatalf("call after the broken session: %v, %d connections", err, accepted())
			}
		})
	}
}

func TestCallAfterCloseFails(t *testing.T) {
	s, c := startServer(t)
	if err := c.Rebind("s/r1", testIOR(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitSessions(t, s, 0)
	if _, err := c.Resolve("s/r1"); !errors.Is(err, ErrClosed) {
		t.Fatalf("resolve on a closed client: %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestConcurrentCallsShareSession: callers on one client take turns on its
// one connection, and every reply is decoded as the answer to its own
// request. Each goroutine works under its own prefix, so a reply that went
// to the wrong caller shows as a foreign name or port.
func TestConcurrentCallsShareSession(t *testing.T) {
	s, _ := startServer(t)
	c, log := recordingClient(t, s.Addr())
	const callers, calls = 8, 200
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func() {
			prefix := fmt.Sprintf("c%d/", g)
			port := func(i int) uint16 { return uint16(1000*(g+1) + i) }
			errs <- func() error {
				for i := 0; i < calls; i++ {
					switch i % 4 {
					case 0:
						if err := c.Rebind(prefix+"a", testIOR(port(i))); err != nil {
							return err
						}
					case 1:
						ior, err := c.Resolve(prefix + "a")
						if err != nil {
							return err
						}
						if prof, _ := ior.IIOP(); prof.Port != port(i-1) {
							return fmt.Errorf("caller %d resolved port %d, bound %d", g, prof.Port, port(i-1))
						}
					case 2:
						entries, err := c.List(prefix)
						if err != nil {
							return err
						}
						if len(entries) != 1 || !strings.HasPrefix(entries[0].Name, prefix) {
							return fmt.Errorf("caller %d listed %v", g, entries)
						}
					case 3:
						if err := c.Unbind(prefix + "a"); err != nil {
							return err
						}
					}
				}
				return nil
			}()
		}()
	}
	for g := 0; g < callers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if log.dials() != 1 {
		t.Fatalf("%d dials for %d calls, want 1", log.dials(), callers*calls)
	}
}

// TestServerCloseDoesNotWaitForIdleSessions: Close closes the sessions it
// is serving rather than waiting out their idle deadline.
func TestServerCloseDoesNotWaitForIdleSessions(t *testing.T) {
	tel := telemetry.New()
	s := NewServer()
	s.SetTelemetry(tel)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	}
	waitSessions(t, s, 3)
	if n := tel.NamingSessions.Value(); n != 3 {
		t.Fatalf("mead_naming_sessions = %d with three connections open", n)
	}
	began := time.Now()
	_ = s.Close()
	if took := time.Since(began); took > 100*time.Millisecond {
		t.Fatalf("Close took %v with three idle sessions open", took)
	}
	if n := tel.NamingSessions.Value(); n != 0 {
		t.Fatalf("mead_naming_sessions = %d after Close", n)
	}
}
