package orb

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mead/internal/cdr"
)

// TestPooledBufferReleaseUnderPipelining hammers the pooled receive path
// from many concurrent callers through one multiplexed connection: each
// caller echoes a distinctive payload and verifies it byte-for-byte. A
// buffer released while another request still reads it (double release,
// premature recycle, borrow outliving its MsgBuf) shows up here as payload
// corruption — and as a data race under `go test -race`.
func TestPooledBufferReleaseUnderPipelining(t *testing.T) {
	const callers = 64
	const perCaller = 25

	s, _ := startServer(t)
	ior, err := s.IORFor(typeID, clockKey)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(WithConnectionPool())
	defer c.Close()
	o := c.Object(ior)

	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Vary payload size across callers so requests land in
			// different buffer size classes (including fragments of the
			// same class being recycled between goroutines).
			pad := bytes.Repeat([]byte{byte('a' + i%26)}, 16*(i%32))
			for k := 0; k < perCaller; k++ {
				want := fmt.Sprintf("caller-%d-call-%d-%s", i, k, pad)
				var got string
				err := o.Invoke("echo", func(e *cdr.Encoder) {
					e.WriteString(want)
				}, func(d *cdr.Decoder) error {
					v, err := d.ReadString()
					got = v
					return err
				})
				if err != nil {
					errs[i] = fmt.Errorf("call %d: %w", k, err)
					return
				}
				if got != want {
					errs[i] = fmt.Errorf("call %d: payload corrupted: got %d bytes, want %d", k, len(got), len(want))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
}

// TestSerializedBufferReuseAcrossInvocations covers a reference that owns its
// connection: one reference, many sequential invocations with differing payload
// sizes, all recycling through the same pooled buffers.
func TestSerializedBufferReuseAcrossInvocations(t *testing.T) {
	s, _ := startServer(t)
	o := objectFor(t, s)
	for k := 0; k < 200; k++ {
		want := fmt.Sprintf("seq-%d-%s", k, bytes.Repeat([]byte{byte('A' + k%26)}, 7*(k%40)))
		var got string
		err := o.Invoke("echo", func(e *cdr.Encoder) {
			e.WriteString(want)
		}, func(d *cdr.Decoder) error {
			v, err := d.ReadString()
			got = v
			return err
		})
		if err != nil {
			t.Fatalf("call %d: %v", k, err)
		}
		if got != want {
			t.Fatalf("call %d: payload corrupted", k)
		}
	}
}
