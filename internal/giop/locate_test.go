package giop

import (
	"bytes"
	"testing"

	"mead/internal/cdr"
)

// TestLocateRequestRoundTrip decodes a LocateRequest as a peer sends it, in
// either byte order.
func TestLocateRequestRoundTrip(t *testing.T) {
	key := MakeObjectKey("timeofday", "clock")
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		e := cdr.NewEncoder(order)
		e.WriteULong(77)
		e.WriteOctets(key)
		h, body, err := ReadMessage(bytes.NewReader(EncodeMessage(order, MsgLocateRequest, e.Bytes())))
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
	msg := EncodeLocateReply(cdr.BigEndian, LocateReplyHeader{RequestID: 5, Status: LocateObjectHere})
	h, body, err := ReadMessage(bytes.NewReader(msg))
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgLocateReply {
		t.Fatalf("type = %v", h.Type)
	}
	d := cdr.NewDecoder(body, h.Order)
	id, _ := d.ReadULong()
	status, err := d.ReadULong()
	if err != nil || id != 5 || LocateStatus(status) != LocateObjectHere || d.Remaining() != 0 {
		t.Fatalf("reply = id %d, %v, %d bytes left, %v", id, LocateStatus(status), d.Remaining(), err)
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
