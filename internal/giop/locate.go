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

// EncodeLocateReply renders a complete LocateReply message. The server ORB
// answers OBJECT_HERE or UNKNOWN_OBJECT and never forwards, so the message
// has no body after the status.
func EncodeLocateReply(order cdr.ByteOrder, hdr LocateReplyHeader) []byte {
	e := beginMessage(order)
	e.WriteULong(hdr.RequestID)
	e.WriteULong(uint32(hdr.Status))
	return copyOut(finishMessage(e, order, MsgLocateReply))
}
