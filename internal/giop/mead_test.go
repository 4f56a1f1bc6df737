package giop

import (
	"bytes"
	"errors"
	"testing"

	"mead/internal/cdr"
)

func TestMeadFrameRoundTrip(t *testing.T) {
	payload := []byte("next-replica-info")
	frame := EncodeMead(MeadNotice, payload)
	tp, n, err := ParseMeadHeader(frame[:MeadHeaderLen])
	if err != nil {
		t.Fatal(err)
	}
	if tp != MeadNotice || int(n) != len(payload) {
		t.Fatalf("type=%v len=%d", tp, n)
	}
	if !bytes.Equal(frame[MeadHeaderLen:], payload) {
		t.Fatal("payload mismatch")
	}
}

func TestParseMeadHeaderErrors(t *testing.T) {
	if _, _, err := ParseMeadHeader([]byte("MEAD")); !errors.Is(err, ErrBadMeadFrame) {
		t.Fatalf("short header err = %v", err)
	}
	bad := EncodeMead(MeadFailover, nil)
	bad[0] = 'X'
	if _, _, err := ParseMeadHeader(bad); !errors.Is(err, ErrBadMeadFrame) {
		t.Fatalf("bad magic err = %v", err)
	}
	ver := EncodeMead(MeadFailover, nil)
	ver[4] = 9
	if _, _, err := ParseMeadHeader(ver); !errors.Is(err, ErrBadMeadFrame) {
		t.Fatalf("bad version err = %v", err)
	}
}

func TestMeadFailoverRoundTrip(t *testing.T) {
	ior := NewIOR("IDL:mead/TimeOfDay:1.0", "127.0.0.1", 7001, MakeObjectKey("timeofday", "clock"))
	// A notice carries the fail-over frame's payload under its own type.
	for _, tc := range []struct {
		typ    MeadType
		encode func(string, IOR) []byte
	}{{MeadFailover, EncodeMeadFailover}, {MeadNotice, EncodeMeadNotice}} {
		frame := tc.encode("127.0.0.1:7001", ior)
		f, n, err := FrameAt(frame)
		if err != nil || n != len(frame) {
			t.Fatalf("FrameAt = %d, %v", n, err)
		}
		if f.Kind != FrameMEAD || f.Mead.Type != tc.typ {
			t.Fatalf("frame = %+v", f)
		}
		addr, gotIOR, err := DecodeMeadFailover(f.Mead.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if addr != "127.0.0.1:7001" {
			t.Fatalf("addr = %q", addr)
		}
		if gotIOR.TypeID != ior.TypeID {
			t.Fatalf("ior type = %q", gotIOR.TypeID)
		}
	}
}

func TestDecodeMeadFailoverErrors(t *testing.T) {
	if _, _, err := DecodeMeadFailover(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString("addr-only")
	if _, _, err := DecodeMeadFailover(e.Bytes()); err == nil {
		t.Fatal("payload without IOR accepted")
	}
}

// requireWaitsAtEveryBoundary asserts that FrameAt asks for more bytes on
// every proper prefix of a whole frame.
func requireWaitsAtEveryBoundary(t *testing.T, frame []byte) {
	t.Helper()
	for k := 0; k < len(frame); k++ {
		if _, n, err := FrameAt(frame[:k]); n != 0 || err != nil {
			t.Fatalf("FrameAt(first %d of %d bytes) = %d, %v; want 0, nil", k, len(frame), n, err)
		}
	}
}

func TestReadFrameGIOPThenMead(t *testing.T) {
	giopMsg := EncodeRequest(cdr.BigEndian, RequestHeader{RequestID: 1, Operation: "op"}, nil)
	meadMsg := EncodeMead(MeadFailover, []byte{1, 2, 3})
	stream := append(append([]byte(nil), meadMsg...), giopMsg...)

	for k := len(meadMsg); k <= len(stream); k++ {
		f1, n, err := FrameAt(stream[:k])
		if err != nil || n != len(meadMsg) || f1.Kind != FrameMEAD || !bytes.Equal(f1.Raw, meadMsg) {
			t.Fatalf("first frame of a %d-byte prefix = %+v, %d, %v", k, f1, n, err)
		}
		if cap(f1.Raw) != len(meadMsg) {
			t.Fatalf("Raw not capacity-capped: len %d, cap %d", len(f1.Raw), cap(f1.Raw))
		}
	}
	requireWaitsAtEveryBoundary(t, meadMsg)
	rest := stream[len(meadMsg):]
	f2, n, err := FrameAt(rest)
	if err != nil || n != len(giopMsg) || f2.Kind != FrameGIOP || f2.Header.Type != MsgRequest || !bytes.Equal(f2.Raw, giopMsg) {
		t.Fatalf("second frame = %+v, %d, %v", f2, n, err)
	}
	requireWaitsAtEveryBoundary(t, giopMsg)
	if _, n, err := FrameAt(rest[n:]); n != 0 || err != nil {
		t.Fatalf("end of stream = %d, %v; want 0, nil", n, err)
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	junk := bytes.Repeat([]byte{0x55}, 20)
	for k := HeaderLen; k <= len(junk); k++ {
		if _, _, err := FrameAt(junk[:k]); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%d bytes: err = %v, want ErrBadMagic", k, err)
		}
	}
}

// TestReadFrameTruncatedBodies: a frame that stops short is never taken for
// a whole one; FrameAt waits for the rest at every byte boundary.
func TestReadFrameTruncatedBodies(t *testing.T) {
	requireWaitsAtEveryBoundary(t, EncodeRequest(cdr.BigEndian, RequestHeader{RequestID: 1, Operation: "op"}, nil))
	requireWaitsAtEveryBoundary(t, EncodeMead(MeadNotice, []byte{1, 2, 3, 4}))
}

func TestFrameBody(t *testing.T) {
	meadMsg := EncodeMead(MeadNotice, []byte{9, 9})
	f, _, err := FrameAt(meadMsg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Body(), []byte{9, 9}) {
		t.Fatalf("Body() = % x", f.Body())
	}
	giopMsg := EncodeMessage(cdr.BigEndian, MsgReply, []byte{7})
	if f, _, _ := FrameAt(giopMsg); !bytes.Equal(f.Body(), []byte{7}) {
		t.Fatalf("GIOP Body() = % x", f.Body())
	}
	var empty Frame
	if empty.Body() != nil {
		t.Fatal("empty frame Body() != nil")
	}
}
