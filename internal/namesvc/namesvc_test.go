package namesvc

import (
	"errors"
	"fmt"
	"testing"

	"mead/internal/giop"
)

func startServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := NewServer()
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	c := NewClient(s.Addr())
	t.Cleanup(func() {
		_ = c.Close()
		_ = s.Close()
	})
	return s, c
}

func testIOR(port uint16) giop.IOR {
	return giop.NewIOR("IDL:mead/TimeOfDay:1.0", "127.0.0.1", port,
		giop.MakeObjectKey("timeofday", "clock"))
}

func TestBindAndResolve(t *testing.T) {
	_, c := startServer(t)
	ior := testIOR(7001)
	if err := c.Bind("timeofday/r1", ior); err != nil {
		t.Fatal(err)
	}
	got, err := c.Resolve("timeofday/r1")
	if err != nil {
		t.Fatal(err)
	}
	addr, err := got.Addr()
	if err != nil || addr != "127.0.0.1:7001" {
		t.Fatalf("resolved addr = %q, %v", addr, err)
	}
}

func TestResolveNotFound(t *testing.T) {
	_, c := startServer(t)
	if _, err := c.Resolve("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestDoubleBindRejected(t *testing.T) {
	_, c := startServer(t)
	if err := c.Bind("n", testIOR(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("n", testIOR(2)); err == nil {
		t.Fatal("double bind accepted")
	}
}

func TestRebindReplaces(t *testing.T) {
	_, c := startServer(t)
	if err := c.Bind("n", testIOR(1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebind("n", testIOR(2)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Resolve("n")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := got.IIOP()
	if prof.Port != 2 {
		t.Fatalf("port after rebind = %d", prof.Port)
	}
}

func TestRebindFreshNameWorks(t *testing.T) {
	_, c := startServer(t)
	if err := c.Rebind("fresh", testIOR(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve("fresh"); err != nil {
		t.Fatal(err)
	}
}

func TestUnbind(t *testing.T) {
	_, c := startServer(t)
	_ = c.Bind("n", testIOR(1))
	if err := c.Unbind("n"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve("n"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err after unbind = %v", err)
	}
	if err := c.Unbind("n"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double unbind err = %v", err)
	}
}

func TestListRegistrationOrder(t *testing.T) {
	_, c := startServer(t)
	for i := 1; i <= 3; i++ {
		if err := c.Bind(fmt.Sprintf("timeofday/r%d", i), testIOR(uint16(7000+i))); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Bind("other/x", testIOR(9000))

	entries, err := c.List("timeofday/")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("listing size = %d, want 3", len(entries))
	}
	for i, e := range entries {
		want := fmt.Sprintf("timeofday/r%d", i+1)
		if e.Name != want {
			t.Fatalf("entry %d = %q, want %q", i, e.Name, want)
		}
	}
}

func TestListOrderStableAcrossRebind(t *testing.T) {
	// A restarted replica rebinds its name; its position in the listing
	// (the "next replica" order) must not change.
	_, c := startServer(t)
	_ = c.Bind("s/r1", testIOR(1))
	_ = c.Bind("s/r2", testIOR(2))
	_ = c.Bind("s/r3", testIOR(3))
	if err := c.Rebind("s/r1", testIOR(100)); err != nil {
		t.Fatal(err)
	}
	entries, err := c.List("s/")
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Name != "s/r1" {
		t.Fatalf("first entry after rebind = %q", entries[0].Name)
	}
	prof, _ := entries[0].IOR.IIOP()
	if prof.Port != 100 {
		t.Fatalf("rebound IOR port = %d", prof.Port)
	}
}

func TestListEmptyPrefix(t *testing.T) {
	_, c := startServer(t)
	entries, err := c.List("missing/")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("entries = %v", entries)
	}
}

func TestClientAgainstClosedServer(t *testing.T) {
	s, c := startServer(t)
	_ = s.Close()
	if _, err := c.Resolve("x"); err == nil {
		t.Fatal("resolve against closed server succeeded")
	}
}

func TestManyConcurrentClients(t *testing.T) {
	_, c := startServer(t)
	_ = c.Bind("s/r1", testIOR(1))
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func() {
			_, err := c.Resolve("s/r1")
			done <- err
		}()
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
