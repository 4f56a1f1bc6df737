package giop

import (
	"bytes"
	"errors"
	"io"
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
		f, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
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

func TestReadFrameGIOPThenMead(t *testing.T) {
	var stream bytes.Buffer
	giopMsg := EncodeRequest(cdr.BigEndian, RequestHeader{RequestID: 1, Operation: "op"}, nil)
	meadMsg := EncodeMead(MeadFailover, []byte{1, 2, 3})
	stream.Write(meadMsg)
	stream.Write(giopMsg)

	f1, err := ReadFrame(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Kind != FrameMEAD || !bytes.Equal(f1.Raw, meadMsg) {
		t.Fatalf("first frame = %+v", f1)
	}
	f2, err := ReadFrame(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Kind != FrameGIOP || f2.Header.Type != MsgRequest || !bytes.Equal(f2.Raw, giopMsg) {
		t.Fatalf("second frame = %+v", f2)
	}
	if _, err := ReadFrame(&stream); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream err = %v", err)
	}
}

func TestReadFrameBadMagic(t *testing.T) {
	junk := bytes.Repeat([]byte{0x55}, 20)
	if _, err := ReadFrame(bytes.NewReader(junk)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
}

func TestReadFrameTruncatedBodies(t *testing.T) {
	giopMsg := EncodeRequest(cdr.BigEndian, RequestHeader{RequestID: 1, Operation: "op"}, nil)
	if _, err := ReadFrame(bytes.NewReader(giopMsg[:len(giopMsg)-1])); err == nil {
		t.Fatal("truncated GIOP frame accepted")
	}
	meadMsg := EncodeMead(MeadNotice, []byte{1, 2, 3, 4})
	if _, err := ReadFrame(bytes.NewReader(meadMsg[:len(meadMsg)-2])); err == nil {
		t.Fatal("truncated MEAD frame accepted")
	}
}

func TestFrameBody(t *testing.T) {
	meadMsg := EncodeMead(MeadNotice, []byte{9, 9})
	f, err := ReadFrame(bytes.NewReader(meadMsg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Body(), []byte{9, 9}) {
		t.Fatalf("Body() = % x", f.Body())
	}
	var empty Frame
	if empty.Body() != nil {
		t.Fatal("empty frame Body() != nil")
	}
}
