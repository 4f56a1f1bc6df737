package giop

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"mead/internal/cdr"
)

func TestHeaderRoundTrip(t *testing.T) {
	tests := []Header{
		{Major: 1, Minor: 0, Order: cdr.BigEndian, Type: MsgRequest, Size: 0},
		{Major: 1, Minor: 0, Order: cdr.LittleEndian, Type: MsgReply, Size: 1234},
		{Major: 1, Minor: 2, Order: cdr.BigEndian, Type: MsgCloseConnection, Size: 7},
	}
	for _, h := range tests {
		b := EncodeHeader(h)
		if len(b) != HeaderLen {
			t.Fatalf("header length %d, want %d", len(b), HeaderLen)
		}
		got, err := ParseHeader(b)
		if err != nil {
			t.Fatalf("ParseHeader(%+v): %v", h, err)
		}
		if got != h {
			t.Fatalf("round trip %+v -> %+v", h, got)
		}
	}
}

func TestParseHeaderErrors(t *testing.T) {
	if _, err := ParseHeader([]byte("GIO")); err == nil {
		t.Fatal("short header accepted")
	}
	bad := EncodeHeader(Header{Major: 1, Type: MsgRequest})
	bad[0] = 'X'
	if _, err := ParseHeader(bad); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic err = %v", err)
	}
	ver := EncodeHeader(Header{Major: 2, Type: MsgRequest})
	if _, err := ParseHeader(ver); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version err = %v", err)
	}
	big := EncodeHeader(Header{Major: 1, Type: MsgRequest, Size: MaxMessageSize + 1})
	if _, err := ParseHeader(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("too-large err = %v", err)
	}
}

func TestMessageRoundTripOverPipe(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("hello giop body")
	buf.Write(EncodeMessage(cdr.LittleEndian, MsgReply, body))
	h, got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgReply || h.Order != cdr.LittleEndian || h.Size != uint32(len(body)) {
		t.Fatalf("header = %+v", h)
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("body = %q", got)
	}
}

func TestReadMessageTruncatedBody(t *testing.T) {
	msg := EncodeMessage(cdr.BigEndian, MsgRequest, []byte("full body"))
	_, _, err := ReadMessage(bytes.NewReader(msg[:len(msg)-3]))
	if err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestReadMessageEOF(t *testing.T) {
	_, _, err := ReadMessage(bytes.NewReader(nil))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	names := map[MsgType]string{
		MsgRequest:         "Request",
		MsgReply:           "Reply",
		MsgCancelRequest:   "CancelRequest",
		MsgLocateRequest:   "LocateRequest",
		MsgLocateReply:     "LocateReply",
		MsgCloseConnection: "CloseConnection",
		MsgMessageError:    "MessageError",
		MsgType(99):        "MsgType(99)",
	}
	for mt, want := range names {
		if got := mt.String(); got != want {
			t.Errorf("MsgType(%d).String() = %q, want %q", mt, got, want)
		}
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(minor uint8, little bool, mt uint8, size uint32) bool {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		h := Header{Major: 1, Minor: minor, Order: order, Type: MsgType(mt % 7), Size: size % MaxMessageSize}
		got, err := ParseHeader(EncodeHeader(h))
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
