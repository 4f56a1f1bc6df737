package giop

import (
	"fmt"

	"mead/internal/cdr"
)

// LocateStatus is the GIOP LocateReply discriminator.
type LocateStatus uint32

// Locate statuses.
const (
	// LocateUnknownObject: the server does not know the object.
	LocateUnknownObject LocateStatus = 0
	// LocateObjectHere: the server serves the object itself.
	LocateObjectHere LocateStatus = 1
	// LocateObjectForward: the body carries an IOR to try instead — the
	// locate-level analogue of a LOCATION_FORWARD reply.
	LocateObjectForward LocateStatus = 2
)

func (s LocateStatus) String() string {
	switch s {
	case LocateUnknownObject:
		return "UNKNOWN_OBJECT"
	case LocateObjectHere:
		return "OBJECT_HERE"
	case LocateObjectForward:
		return "OBJECT_FORWARD"
	default:
		return fmt.Sprintf("LocateStatus(%d)", uint32(s))
	}
}

// LocateRequestHeader is the GIOP 1.0 LocateRequest header.
type LocateRequestHeader struct {
	RequestID uint32
	ObjectKey []byte
}

// EncodeLocateRequestPooled renders a complete LocateRequest message in a
// pooled encoder; ownership of the returned encoder follows finishMessage.
func EncodeLocateRequestPooled(order cdr.ByteOrder, hdr LocateRequestHeader) *cdr.Encoder {
	e := beginMessage(order)
	e.WriteULong(hdr.RequestID)
	e.WriteOctets(hdr.ObjectKey)
	return finishMessage(e, order, MsgLocateRequest)
}

// DecodeLocateRequest parses a LocateRequest body.
func DecodeLocateRequest(order cdr.ByteOrder, body []byte) (LocateRequestHeader, error) {
	d := cdr.NewDecoder(body, order)
	var hdr LocateRequestHeader
	var err error
	if hdr.RequestID, err = d.ReadULong(); err != nil {
		return hdr, fmt.Errorf("giop: locate request id: %w", err)
	}
	if hdr.ObjectKey, err = d.ReadOctets(); err != nil {
		return hdr, fmt.Errorf("giop: locate object key: %w", err)
	}
	return hdr, nil
}

// LocateReplyHeader is the GIOP LocateReply header.
type LocateReplyHeader struct {
	RequestID uint32
	Status    LocateStatus
}

// EncodeLocateReply renders a complete LocateReply message; forward, if
// non-nil, is appended for OBJECT_FORWARD.
func EncodeLocateReply(order cdr.ByteOrder, hdr LocateReplyHeader, forward *IOR) []byte {
	e := beginMessage(order)
	e.WriteULong(hdr.RequestID)
	e.WriteULong(uint32(hdr.Status))
	if hdr.Status == LocateObjectForward && forward != nil {
		e.Rebase() // the forwarded IOR forms its own alignment origin
		EncodeIOR(e, *forward)
	}
	return copyOut(finishMessage(e, order, MsgLocateReply))
}

// DecodeLocateReply parses a LocateReply body, returning the forwarded IOR
// for OBJECT_FORWARD.
func DecodeLocateReply(order cdr.ByteOrder, body []byte) (LocateReplyHeader, *IOR, error) {
	d := cdr.NewDecoder(body, order)
	var hdr LocateReplyHeader
	var err error
	if hdr.RequestID, err = d.ReadULong(); err != nil {
		return hdr, nil, fmt.Errorf("giop: locate reply id: %w", err)
	}
	status, err := d.ReadULong()
	if err != nil {
		return hdr, nil, fmt.Errorf("giop: locate reply status: %w", err)
	}
	if status > uint32(LocateObjectForward) {
		return hdr, nil, fmt.Errorf("giop: unknown locate status %d", status)
	}
	hdr.Status = LocateStatus(status)
	if hdr.Status != LocateObjectForward {
		return hdr, nil, nil
	}
	inner := cdr.NewDecoder(d.Rest(), order)
	ior, err := DecodeIOR(inner)
	if err != nil {
		return hdr, nil, fmt.Errorf("giop: locate forward body: %w", err)
	}
	return hdr, &ior, nil
}
