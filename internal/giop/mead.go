package giop

import (
	"errors"
	"fmt"

	"mead/internal/cdr"
)

// MEAD proactive fail-over messages.
//
// The paper's third (and best-performing) scheme piggybacks a custom MEAD
// message onto regular GIOP replies: "we accomplish this by piggybacking
// regular GIOP Reply messages onto the MEAD proactive failover messages.
// When the client-side Interceptor receives this combined message, it
// extracts (the address in) the MEAD message to redirect the client
// connection to the new replica" (Section 4.3). A MEAD frame therefore
// travels on the same TCP stream as GIOP frames, distinguished by its magic;
// client-side interceptors filter it out before the ORB sees the stream.

// MeadMagic is the four-byte MEAD frame prefix.
const MeadMagic = "MEAD"

// MeadHeaderLen is the fixed MEAD frame header length (magic, version, type,
// two reserved bytes, big-endian payload length).
const MeadHeaderLen = 12

// MeadType identifies a MEAD frame kind.
type MeadType uint8

// MEAD frame types.
const (
	// MeadFailover carries the address of the next available replica; the
	// client interceptor redirects its connection there.
	MeadFailover MeadType = 1
	// MeadNotice names, ahead of time, the replica a later MeadFailover will
	// most likely direct the client to, so that the client interceptor can
	// open that connection before the hand-off needs it. It is advisory: a
	// client may ignore it, and only MeadFailover moves a connection.
	MeadNotice MeadType = 2
)

// MeadVersion is the MEAD frame format version.
const MeadVersion = 1

// ErrBadMeadFrame reports a malformed MEAD frame.
var ErrBadMeadFrame = errors.New("giop: malformed MEAD frame")

// MeadMessage is a decoded MEAD frame.
type MeadMessage struct {
	Type    MeadType
	Payload []byte
}

// EncodeMead renders a complete MEAD frame.
func EncodeMead(t MeadType, payload []byte) []byte {
	out := make([]byte, 0, MeadHeaderLen+len(payload))
	out = append(out, MeadMagic...)
	out = append(out, MeadVersion, byte(t), 0, 0)
	n := uint32(len(payload))
	out = append(out, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	out = append(out, payload...)
	return out
}

// ParseMeadHeader decodes a 12-byte MEAD frame header, returning the type
// and payload length.
func ParseMeadHeader(b []byte) (MeadType, uint32, error) {
	if len(b) < MeadHeaderLen {
		return 0, 0, fmt.Errorf("%w: short header", ErrBadMeadFrame)
	}
	if string(b[:4]) != MeadMagic {
		return 0, 0, fmt.Errorf("%w: bad magic % x", ErrBadMeadFrame, b[:4])
	}
	if b[4] != MeadVersion {
		return 0, 0, fmt.Errorf("%w: unsupported version %d", ErrBadMeadFrame, b[4])
	}
	n := uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11])
	if n > MaxMessageSize {
		return 0, 0, fmt.Errorf("%w: %d-byte payload", ErrTooLarge, n)
	}
	return MeadType(b[5]), n, nil
}

// EncodeMeadFailover builds the MEAD fail-over frame directing clients to
// the replica serving ior at addr ("host:port").
func EncodeMeadFailover(addr string, ior IOR) []byte {
	return encodeMeadTarget(MeadFailover, addr, ior)
}

// EncodeMeadNotice builds the MEAD notice frame naming the replica serving
// ior at addr as the likely fail-over target; its payload is MeadFailover's.
func EncodeMeadNotice(addr string, ior IOR) []byte {
	return encodeMeadTarget(MeadNotice, addr, ior)
}

func encodeMeadTarget(t MeadType, addr string, ior IOR) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString(addr)
	EncodeIOR(e, ior)
	return EncodeMead(t, e.Bytes())
}

// DecodeMeadFailover extracts the target address and IOR from a MeadFailover
// (or MeadNotice) payload.
func DecodeMeadFailover(payload []byte) (addr string, ior IOR, err error) {
	d := cdr.NewDecoder(payload, cdr.BigEndian)
	if addr, err = d.ReadString(); err != nil {
		return "", IOR{}, fmt.Errorf("%w: address: %v", ErrBadMeadFrame, err)
	}
	if ior, err = DecodeIOR(d); err != nil {
		return "", IOR{}, fmt.Errorf("%w: ior: %v", ErrBadMeadFrame, err)
	}
	return addr, ior, nil
}

// FrameKind distinguishes the two frame families that can appear on a MEAD
// connection's byte stream.
type FrameKind int

// Frame kinds.
const (
	FrameGIOP FrameKind = iota + 1
	FrameMEAD
)

// Frame is one whole frame of a connection's byte stream, as FrameAt splits
// it off: a GIOP message (a whole fragment train counts as one) or a MEAD
// message, together with its raw wire bytes so interceptors can forward it
// verbatim.
type Frame struct {
	Kind FrameKind
	// GIOP fields (Kind == FrameGIOP). For a fragmented message, Header
	// describes the assembled logical message.
	Header Header
	// MEAD fields (Kind == FrameMEAD).
	Mead MeadMessage
	// Raw is the complete wire representation: for fragmented GIOP
	// messages, all constituent wire frames concatenated.
	Raw []byte
	// assembled holds the reassembled body when Raw spans fragments.
	assembled []byte
}

// Body returns the frame's logical payload (assembled GIOP body or MEAD
// payload).
func (f Frame) Body() []byte {
	if f.assembled != nil {
		return f.assembled
	}
	if len(f.Raw) < MeadHeaderLen { // both header formats are 12 bytes
		return nil
	}
	return f.Raw[MeadHeaderLen:]
}

// FrameAt parses the whole frame at the head of buf where it lies: a MEAD
// frame, a GIOP message, or a complete GIOP 1.1 fragment train. n is the
// frame's length on the wire. n == 0 with a nil error means buf holds only a
// prefix of the frame: wait for more bytes. A non-nil error means the head of
// buf can never become a valid frame: bad magic or version, a length over
// MaxMessageSize, or a train continued by anything but a Fragment.
//
// The frame aliases buf. Raw is buf[:n:n], capped so that appending to it
// cannot scribble on the next frame; a train's Raw keeps every wire byte and
// its Body is assembled into a fresh slice. It is the one function that
// decides where a frame ends, for the interceptor's reads and writes alike and
// for the netfault shim.
func FrameAt(buf []byte) (Frame, int, error) {
	var fr Framer
	return fr.FrameAt(buf)
}

// A Framer is FrameAt for a buffer that grows at its end between calls, as a
// connection's inbound buffer does. It remembers how far it has walked the
// fragment train at the buffer's head, so a train that arrives a fragment per
// read is walked once in all, not from its first header on every read. The
// zero value is ready, and a call that returns a frame or an error leaves it
// zero. A caller that drops the bytes at its buffer's head before the frame
// there is whole must go on with a zero Framer.
type Framer struct {
	walked int // offset of the next train header to parse; 0 outside a train
}

// FrameAt is the package's FrameAt, resuming the walk of a train where the
// previous call stopped.
func (fr *Framer) FrameAt(buf []byte) (Frame, int, error) {
	if len(buf) < HeaderLen { // both header formats are 12 bytes
		return Frame{}, 0, nil
	}
	switch string(buf[:4]) {
	case MeadMagic:
		t, size, err := ParseMeadHeader(buf[:MeadHeaderLen])
		if err != nil {
			return Frame{}, 0, err
		}
		n := MeadHeaderLen + int(size)
		if len(buf) < n {
			return Frame{}, 0, nil
		}
		raw := buf[:n:n]
		return Frame{Kind: FrameMEAD, Mead: MeadMessage{Type: t, Payload: raw[MeadHeaderLen:]}, Raw: raw}, n, nil
	case Magic:
		h, err := ParseHeader(buf[:HeaderLen])
		if err != nil {
			return Frame{}, 0, err
		}
		if h.Fragmented {
			return fr.trainAt(buf, h)
		}
		n := HeaderLen + int(h.Size)
		if len(buf) < n {
			return Frame{}, 0, nil
		}
		return Frame{Kind: FrameGIOP, Header: h, Raw: buf[:n:n]}, n, nil
	default:
		return Frame{}, 0, fmt.Errorf("%w: % x", ErrBadMagic, buf[:4])
	}
}

// trainAt is FrameAt for a message whose first header, h, carries the
// more-fragments flag. It walks the train's headers from where the last call
// stopped, without copying anything; the body is assembled once the last
// fragment is in.
func (fr *Framer) trainAt(buf []byte, h Header) (Frame, int, error) {
	n := max(fr.walked, HeaderLen+int(h.Size))
	fr.walked = 0
	at := n // the last header parsed
	for more := true; more; {
		if len(buf) < n+HeaderLen {
			fr.walked = n
			return Frame{}, 0, nil
		}
		fh, err := ParseHeader(buf[n : n+HeaderLen])
		if err != nil {
			return Frame{}, 0, err
		}
		if fh.Type != MsgFragment {
			return Frame{}, 0, fmt.Errorf("giop: expected Fragment, got %v", fh.Type)
		}
		if at, n = n, n+HeaderLen+int(fh.Size); n > MaxMessageSize {
			return Frame{}, 0, fmt.Errorf("%w: fragment train", ErrTooLarge)
		}
		more = fh.Fragmented
	}
	if len(buf) < n {
		fr.walked = at // parse the last header again when its body is in
		return Frame{}, 0, nil
	}
	raw := buf[:n:n]
	body := make([]byte, 0, n)
	for off := 0; off < n; {
		fh, _ := ParseHeader(raw[off : off+HeaderLen])
		off += HeaderLen
		body = append(body, raw[off:off+int(fh.Size)]...)
		off += int(fh.Size)
	}
	h.Fragmented = false
	h.Size = uint32(len(body))
	return Frame{Kind: FrameGIOP, Header: h, Raw: raw, assembled: body}, n, nil
}
