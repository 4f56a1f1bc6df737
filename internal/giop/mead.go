package giop

import (
	"errors"
	"fmt"
	"io"

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
	if int64(n) > int64(MaxMessageSize()) {
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

// Frame is one whole frame read off a connection: either a GIOP message or
// a MEAD message, together with its raw wire bytes so interceptors can
// forward it verbatim.
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

// ReadFrame reads one GIOP or MEAD frame from r. This is the read primitive
// of the interceptors, which must see frame boundaries to filter MEAD
// messages and fabricate replies. The frame's Raw is freshly allocated;
// per-connection readers use ReadFrameInto to recycle a scratch buffer.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := ReadFrameInto(r, nil)
	return f, err
}

// ReadFrameInto reads one frame like ReadFrame, reusing scratch as the
// frame's backing storage when it is large enough (growing it otherwise).
// It returns the frame and the buffer to pass to the next call. The frame
// — including Raw, Body, and the MEAD payload — aliases that buffer and is
// valid only until the next ReadFrameInto call with it; retain a copy, not
// the frame. Fragmented GIOP messages take an allocating slow path so Raw
// can hold every original wire byte.
func ReadFrameInto(r io.Reader, scratch []byte) (Frame, []byte, error) {
	// The header is parsed in the pooled scratch itself: a local copy would
	// escape through the error paths and cost an allocation per frame.
	hb := hdrScratchPool.Get().(*[HeaderLen]byte)
	defer hdrScratchPool.Put(hb)
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return Frame{}, scratch, err
	}
	switch string(hb[:4]) {
	case Magic:
		h, err := ParseHeader(hb[:])
		if err != nil {
			return Frame{}, scratch, err
		}
		if !h.Fragmented {
			scratch = growBytes(scratch[:0], HeaderLen+int(h.Size))
			copy(scratch, hb[:])
			if _, err := io.ReadFull(r, scratch[HeaderLen:]); err != nil {
				return Frame{}, scratch, fmt.Errorf("giop: short GIOP frame body: %w", err)
			}
			return Frame{Kind: FrameGIOP, Header: h, Raw: scratch}, scratch, nil
		}
		f, err := readFragmentedFrame(r, h, *hb)
		return f, scratch, err
	case MeadMagic:
		t, n, err := ParseMeadHeader(hb[:])
		if err != nil {
			return Frame{}, scratch, err
		}
		scratch = growBytes(scratch[:0], MeadHeaderLen+int(n))
		copy(scratch, hb[:])
		if _, err := io.ReadFull(r, scratch[MeadHeaderLen:]); err != nil {
			return Frame{}, scratch, fmt.Errorf("giop: short MEAD frame body: %w", err)
		}
		f := Frame{Kind: FrameMEAD, Mead: MeadMessage{Type: t, Payload: scratch[MeadHeaderLen:]}, Raw: scratch}
		return f, scratch, nil
	default:
		return Frame{}, scratch, fmt.Errorf("%w: % x", ErrBadMagic, hb[:4])
	}
}

// readFragmentedFrame reassembles the continuation fragments of a message
// whose first wire frame (header hb, already parsed as h) carried the
// more-fragments flag. Raw keeps every original wire byte so pass-through
// interceptors forward the stream unchanged; Header and Body describe the
// assembled logical message.
func readFragmentedFrame(r io.Reader, h Header, hb [HeaderLen]byte) (Frame, error) {
	raw := make([]byte, HeaderLen+int(h.Size))
	copy(raw, hb[:])
	if _, err := io.ReadFull(r, raw[HeaderLen:]); err != nil {
		return Frame{}, fmt.Errorf("giop: short GIOP frame body: %w", err)
	}
	body := append([]byte(nil), raw[HeaderLen:]...)
	all := raw
	fragmented := true
	for fragmented {
		fh, fbody, err := readMessageRaw(r)
		if err != nil {
			return Frame{}, fmt.Errorf("giop: reading continuation fragment: %w", err)
		}
		if fh.Type != MsgFragment {
			return Frame{}, fmt.Errorf("giop: expected Fragment, got %v", fh.Type)
		}
		if len(body)+len(fbody) > MaxMessageSize() {
			return Frame{}, fmt.Errorf("%w: reassembled frame", ErrTooLarge)
		}
		all = append(all, rawFrame(fh, fbody)...)
		body = append(body, fbody...)
		fragmented = fh.Fragmented
	}
	h.Fragmented = false
	h.Size = uint32(len(body))
	return Frame{Kind: FrameGIOP, Header: h, Raw: all, assembled: body}, nil
}
