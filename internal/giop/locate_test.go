package giop

import (
	"bytes"
	"testing"

	"mead/internal/cdr"
)

func TestLocateRequestRoundTrip(t *testing.T) {
	key := MakeObjectKey("timeofday", "clock")
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		e := EncodeLocateRequestPooled(order, LocateRequestHeader{RequestID: 77, ObjectKey: key})
		h, body, err := ReadMessage(bytes.NewReader(e.Bytes()))
		e.Release()
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != MsgLocateRequest {
			t.Fatalf("type = %v", h.Type)
		}
		hdr, err := DecodeLocateRequest(h.Order, body)
		if err != nil {
			t.Fatal(err)
		}
		if hdr.RequestID != 77 || !bytes.Equal(hdr.ObjectKey, key) {
			t.Fatalf("header = %+v", hdr)
		}
	}
}

func TestLocateReplyHereRoundTrip(t *testing.T) {
	msg := EncodeLocateReply(cdr.BigEndian, LocateReplyHeader{RequestID: 5, Status: LocateObjectHere}, nil)
	h, body, err := ReadMessage(bytes.NewReader(msg))
	if err != nil {
		t.Fatal(err)
	}
	hdr, fwd, err := DecodeLocateReply(h.Order, body)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Status != LocateObjectHere || hdr.RequestID != 5 || fwd != nil {
		t.Fatalf("reply = %+v fwd = %v", hdr, fwd)
	}
}

func TestLocateReplyForwardRoundTrip(t *testing.T) {
	ior := NewIOR("IDL:t:1.0", "127.0.0.1", 9, MakeObjectKey("s", "o"))
	msg := EncodeLocateReply(cdr.LittleEndian, LocateReplyHeader{RequestID: 6, Status: LocateObjectForward}, &ior)
	h, body, err := ReadMessage(bytes.NewReader(msg))
	if err != nil {
		t.Fatal(err)
	}
	hdr, fwd, err := DecodeLocateReply(h.Order, body)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Status != LocateObjectForward || fwd == nil {
		t.Fatalf("reply = %+v", hdr)
	}
	prof, err := fwd.IIOP()
	if err != nil || prof.Port != 9 {
		t.Fatalf("forward profile = %+v, %v", prof, err)
	}
}

func TestDecodeLocateReplyErrors(t *testing.T) {
	if _, _, err := DecodeLocateReply(cdr.BigEndian, nil); err == nil {
		t.Fatal("empty body decoded")
	}
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULong(1)
	e.WriteULong(99)
	if _, _, err := DecodeLocateReply(cdr.BigEndian, e.Bytes()); err == nil {
		t.Fatal("unknown status decoded")
	}
	// forward status with truncated body
	e = cdr.NewEncoder(cdr.BigEndian)
	e.WriteULong(1)
	e.WriteULong(uint32(LocateObjectForward))
	if _, _, err := DecodeLocateReply(cdr.BigEndian, e.Bytes()); err == nil {
		t.Fatal("forward without IOR decoded")
	}
}

func TestLocateStatusString(t *testing.T) {
	if LocateObjectHere.String() != "OBJECT_HERE" ||
		LocateUnknownObject.String() != "UNKNOWN_OBJECT" ||
		LocateObjectForward.String() != "OBJECT_FORWARD" ||
		LocateStatus(9).String() != "LocateStatus(9)" {
		t.Fatal("LocateStatus strings wrong")
	}
}

func TestDecodeLocateRequestTruncated(t *testing.T) {
	if _, err := DecodeLocateRequest(cdr.BigEndian, []byte{0, 0}); err == nil {
		t.Fatal("truncated locate request decoded")
	}
}
