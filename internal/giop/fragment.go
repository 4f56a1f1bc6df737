package giop

import (
	"fmt"
	"io"
	"sync"
)

// GIOP 1.1 fragmentation: a message whose header carries the
// more-fragments flag is continued by Fragment messages (type 7), the last
// of which clears the flag. TAO fragments large requests/replies this way;
// the mini-ORB supports it behind WithMaxBodyBytes options, and ReadMessage
// and ReadFrame reassemble transparently.

// MsgFragment is the GIOP 1.1 Fragment message type.
const MsgFragment MsgType = 7

// FlagMoreFragments is bit 1 of the header flags octet.
const FlagMoreFragments = 0x02

// FragmentMessage splits a complete GIOP message (header + body) into wire
// messages whose bodies are at most maxBody bytes. A message that already
// fits is returned unchanged as a single element. Each emitted frame owns
// its backing array, so later frames can never clobber earlier ones.
func FragmentMessage(raw []byte, maxBody int) ([][]byte, error) {
	if maxBody <= 0 {
		return nil, fmt.Errorf("giop: fragment size must be positive")
	}
	if len(raw) < HeaderLen {
		return nil, fmt.Errorf("giop: message too short to fragment")
	}
	h, err := ParseHeader(raw[:HeaderLen])
	if err != nil {
		return nil, err
	}
	body := raw[HeaderLen:]
	if len(body) != int(h.Size) {
		return nil, fmt.Errorf("giop: message length mismatch: header %d, body %d", h.Size, len(body))
	}
	if len(body) <= maxBody {
		return [][]byte{raw}, nil
	}

	out := make([][]byte, 0, (len(body)+maxBody-1)/maxBody)
	first := true
	for off := 0; off < len(body); off += maxBody {
		end := off + maxBody
		if end > len(body) {
			end = len(body)
		}
		chunk := body[off:end]
		hdr := Header{
			Major:      h.Major,
			Minor:      1, // fragments are a GIOP >=1.1 feature
			Order:      h.Order,
			Type:       h.Type,
			Size:       uint32(len(chunk)),
			Fragmented: end < len(body),
		}
		if !first {
			hdr.Type = MsgFragment
		}
		frame := make([]byte, HeaderLen+len(chunk))
		putHeader(frame, hdr)
		copy(frame[HeaderLen:], chunk)
		out = append(out, frame)
		first = false
	}
	return out, nil
}

// hdrScratchPool recycles the 12-byte header read buffers: a stack array
// would escape through the io.Reader interface and cost one allocation per
// message, which the zero-allocation receive path cannot afford.
var hdrScratchPool = sync.Pool{New: func() any { return new([HeaderLen]byte) }}

// readHeader reads and parses one 12-byte GIOP header.
func readHeader(r io.Reader) (Header, error) {
	hb := hdrScratchPool.Get().(*[HeaderLen]byte)
	var h Header
	_, err := io.ReadFull(r, hb[:])
	if err == nil {
		h, err = ParseHeader(hb[:])
	}
	hdrScratchPool.Put(hb)
	return h, err
}

// readMessageRaw reads a single wire message without reassembly.
func readMessageRaw(r io.Reader) (Header, []byte, error) {
	h, err := readHeader(r)
	if err != nil {
		return Header{}, nil, err
	}
	body := make([]byte, h.Size)
	if _, err := io.ReadFull(r, body); err != nil {
		return Header{}, nil, fmt.Errorf("giop: short body for %v: %w", h.Type, err)
	}
	return h, body, nil
}

// rawFrame re-renders a wire frame from its parsed parts.
func rawFrame(h Header, body []byte) []byte {
	frame := make([]byte, 0, HeaderLen+len(body))
	frame = append(frame, EncodeHeader(h)...)
	frame = append(frame, body...)
	return frame
}

// ReadMessagePooled reads one logical GIOP message into a pooled buffer,
// reassembling GIOP 1.1 fragments single-copy: each fragment body is read
// from the transport directly into its final position in the destination
// buffer, with no intermediate per-fragment frames. The returned header has
// the fragment flag cleared and Size set to the total body length.
//
// The caller owns the returned MsgBuf and must Release it once the body —
// and everything the zero-copy decoders borrowed from it — is no longer
// needed. This is the receive primitive of the steady-state ORB paths.
func ReadMessagePooled(r io.Reader) (Header, *MsgBuf, error) {
	h, err := readHeader(r)
	if err != nil {
		return Header{}, nil, err
	}
	mb := GetMsgBuf(int(h.Size))
	if _, err := io.ReadFull(r, mb.b); err != nil {
		mb.Release()
		return Header{}, nil, fmt.Errorf("giop: short body for %v: %w", h.Type, err)
	}
	for fragmented := h.Fragmented; fragmented; {
		fh, err := readHeader(r)
		if err != nil {
			mb.Release()
			return Header{}, nil, fmt.Errorf("giop: reading continuation fragment: %w", err)
		}
		if fh.Type != MsgFragment {
			mb.Release()
			return Header{}, nil, fmt.Errorf("giop: expected Fragment, got %v", fh.Type)
		}
		off := len(mb.b)
		if off+int(fh.Size) > MaxMessageSize() {
			mb.Release()
			return Header{}, nil, fmt.Errorf("%w: reassembled message", ErrTooLarge)
		}
		mb.grow(off + int(fh.Size))
		if _, err := io.ReadFull(r, mb.b[off:]); err != nil {
			mb.Release()
			return Header{}, nil, fmt.Errorf("giop: short body for %v: %w", fh.Type, err)
		}
		fragmented = fh.Fragmented
	}
	h.Fragmented = false
	h.Size = uint32(len(mb.b))
	return h, mb, nil
}
