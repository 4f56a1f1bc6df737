// Package giop implements the subset of the OMG General Inter-ORB Protocol
// (GIOP) that the MEAD proactive-recovery framework manipulates: message
// framing, Request and Reply headers, system exceptions, Interoperable
// Object References (IORs) with IIOP profiles, persistent object keys with
// the paper's 16-bit hash, and the custom MEAD messages that the framework
// piggybacks onto regular GIOP replies.
//
// Framing follows GIOP 1.0 with the GIOP 1.2 reply-status extensions
// (LOCATION_FORWARD_PERM and NEEDS_ADDRESSING_MODE), which is exactly the
// vocabulary the paper's three proactive schemes use. CDR alignment inside a
// message body is computed relative to the start of the body; both sides of
// this implementation agree on that convention.
package giop

import (
	"errors"
	"fmt"
	"io"

	"mead/internal/cdr"
)

// Protocol constants.
const (
	// Magic is the four-byte GIOP message prefix.
	Magic = "GIOP"
	// HeaderLen is the fixed GIOP message header length.
	HeaderLen = 12
	// MaxMessageSize bounds every length a peer announces: a GIOP or MEAD
	// body, and a fragment train's whole wire length, headers included. It
	// guards against corrupt or hostile length prefixes.
	MaxMessageSize = 16 << 20
	// VersionMajor and VersionMinor identify the GIOP framing in use.
	VersionMajor = 1
	VersionMinor = 0
)

// MsgType identifies a GIOP message kind.
type MsgType uint8

// GIOP message types.
const (
	MsgRequest         MsgType = 0
	MsgReply           MsgType = 1
	MsgCancelRequest   MsgType = 2
	MsgLocateRequest   MsgType = 3
	MsgLocateReply     MsgType = 4
	MsgCloseConnection MsgType = 5
	MsgMessageError    MsgType = 6
)

func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "Request"
	case MsgReply:
		return "Reply"
	case MsgCancelRequest:
		return "CancelRequest"
	case MsgLocateRequest:
		return "LocateRequest"
	case MsgLocateReply:
		return "LocateReply"
	case MsgCloseConnection:
		return "CloseConnection"
	case MsgMessageError:
		return "MessageError"
	case MsgFragment:
		return "Fragment"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Framing errors.
var (
	// ErrBadMagic reports a frame that does not begin with "GIOP" (or
	// "MEAD" where MEAD frames are allowed).
	ErrBadMagic = errors.New("giop: bad magic")
	// ErrBadVersion reports an unsupported GIOP version.
	ErrBadVersion = errors.New("giop: unsupported version")
	// ErrTooLarge reports a message body exceeding MaxMessageSize.
	ErrTooLarge = errors.New("giop: message exceeds maximum size")
)

// Header is the fixed 12-byte GIOP message header.
type Header struct {
	Major uint8
	Minor uint8
	Order cdr.ByteOrder
	Type  MsgType
	Size  uint32 // body length, excluding the header itself
	// Fragmented mirrors the GIOP 1.1 more-fragments flag: the message is
	// continued by Fragment messages. Readers that reassemble clear it.
	Fragmented bool
}

// EncodeHeader renders the 12-byte wire form of h.
func EncodeHeader(h Header) []byte {
	b := make([]byte, HeaderLen)
	putHeader(b, h)
	return b
}

// putHeader writes the 12-byte wire form of h into b (len(b) >= HeaderLen).
func putHeader(b []byte, h Header) {
	copy(b, Magic)
	b[4] = h.Major
	b[5] = h.Minor
	b[6] = byte(h.Order) & 1
	if h.Fragmented {
		b[6] |= FlagMoreFragments
	}
	b[7] = byte(h.Type)
	if h.Order == cdr.LittleEndian {
		b[8] = byte(h.Size)
		b[9] = byte(h.Size >> 8)
		b[10] = byte(h.Size >> 16)
		b[11] = byte(h.Size >> 24)
	} else {
		b[8] = byte(h.Size >> 24)
		b[9] = byte(h.Size >> 16)
		b[10] = byte(h.Size >> 8)
		b[11] = byte(h.Size)
	}
}

// ParseHeader decodes a 12-byte GIOP header.
func ParseHeader(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, fmt.Errorf("giop: header too short (%d bytes): %w", len(b), io.ErrUnexpectedEOF)
	}
	if string(b[:4]) != Magic {
		return Header{}, fmt.Errorf("%w: % x", ErrBadMagic, b[:4])
	}
	h := Header{
		Major:      b[4],
		Minor:      b[5],
		Order:      cdr.ByteOrder(b[6] & 1),
		Type:       MsgType(b[7]),
		Fragmented: b[6]&FlagMoreFragments != 0,
	}
	if h.Major != VersionMajor {
		return Header{}, fmt.Errorf("%w: %d.%d", ErrBadVersion, h.Major, h.Minor)
	}
	if h.Order == cdr.LittleEndian {
		h.Size = uint32(b[8]) | uint32(b[9])<<8 | uint32(b[10])<<16 | uint32(b[11])<<24
	} else {
		h.Size = uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11])
	}
	if h.Size > MaxMessageSize {
		return Header{}, fmt.Errorf("%w: %d bytes", ErrTooLarge, h.Size)
	}
	return h, nil
}

// EncodeMessage renders a complete GIOP message (header + body) for the
// given type, in the given byte order.
func EncodeMessage(order cdr.ByteOrder, t MsgType, body []byte) []byte {
	h := Header{Major: VersionMajor, Minor: VersionMinor, Order: order, Type: t, Size: uint32(len(body))}
	out := make([]byte, HeaderLen+len(body))
	putHeader(out, h)
	copy(out[HeaderLen:], body)
	return out
}

// beginMessage starts the single-buffer encoding fast path: a pooled
// encoder primed with a placeholder GIOP header, rebased so the body that
// follows forms its own CDR alignment origin (the splice convention both
// peers use). Finish with finishMessage.
func beginMessage(order cdr.ByteOrder) *cdr.Encoder {
	e := cdr.GetEncoder(order)
	e.Skip(HeaderLen)
	e.Rebase()
	return e
}

// finishMessage patches the GIOP header over the placeholder and returns
// the pooled encoder, whose Bytes are now the complete wire frame. Ownership
// of the encoder transfers to the caller: the Encode…Pooled forms hand it to
// a connection writer, which Releases it after the transport write returns
// (docs/PROTOCOL.md §10); the copying forms pass it straight to copyOut.
func finishMessage(e *cdr.Encoder, order cdr.ByteOrder, t MsgType) *cdr.Encoder {
	buf := e.Bytes()
	putHeader(buf, Header{
		Major: VersionMajor, Minor: VersionMinor,
		Order: order, Type: t, Size: uint32(len(buf) - HeaderLen),
	})
	return e
}

// copyOut copies a finished message into an exactly sized buffer (the
// copying encode path's single allocation) and releases the pooled encoder.
func copyOut(e *cdr.Encoder) []byte {
	out := make([]byte, len(e.Bytes()))
	copy(out, e.Bytes())
	e.Release()
	return out
}

// ReadMessage reads one logical GIOP message from r, reassembling GIOP 1.1
// fragments, into a freshly allocated body the caller owns. It is the
// copying form of ReadMessagePooled, which steady-state connection readers
// use instead.
func ReadMessage(r io.Reader) (Header, []byte, error) {
	h, mb, err := ReadMessagePooled(r)
	if err != nil {
		return Header{}, nil, err
	}
	body := make([]byte, len(mb.Bytes()))
	copy(body, mb.Bytes())
	mb.Release()
	return h, body, nil
}
