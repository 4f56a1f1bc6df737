//go:build !race

package giop

import (
	"testing"

	"mead/internal/cdr"
)

// TestEncodeDecodeAllocsExact holds the wire-path micro-benchmarks'
// allocation counts as exact assertions: encoding a Request into a buffer
// the caller owns costs that buffer and nothing else, and decoding a warm
// Request or Reply costs nothing. (Under -race sync.Pool drops a quarter of
// its Puts, so the pooled decoders would show up here; TestDecodeRequestAllocs
// and TestDecodeReplyAllocs keep a bound that holds there too.)
func TestEncodeDecodeAllocsExact(t *testing.T) {
	hdr := RequestHeader{
		RequestID:        1,
		ResponseExpected: true,
		ObjectKey:        MakeObjectKey("timeofday", "clock"),
		Operation:        "time_of_day",
	}
	request := EncodeRequest(cdr.BigEndian, hdr, nil)[HeaderLen:]
	reply := EncodeReply(cdr.BigEndian, ReplyHeader{RequestID: 1, Status: ReplyNoException},
		func(e *cdr.Encoder) { e.WriteLongLong(1234567890) })[HeaderLen:]
	for _, tc := range []struct {
		name string
		want float64
		op   func()
	}{
		{"EncodeRequest", 1, func() { _ = EncodeRequest(cdr.BigEndian, hdr, nil) }},
		{"DecodeRequest", 0, func() {
			_, d, err := DecodeRequest(cdr.BigEndian, request)
			if err != nil {
				t.Fatal(err)
			}
			d.Release()
		}},
		{"DecodeReply", 0, func() {
			_, d, err := DecodeReply(cdr.BigEndian, reply)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.ReadLongLong(); err != nil {
				t.Fatal(err)
			}
			d.Release()
		}},
	} {
		tc.op() // warm the pools and the operation-name interner
		if got := testing.AllocsPerRun(1000, tc.op); got != tc.want {
			t.Errorf("%s: %v allocs/op, want %v", tc.name, got, tc.want)
		}
	}
}
