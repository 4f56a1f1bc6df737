package giop

import (
	"fmt"
	"io"
	"sync"
)

// GIOP 1.1 fragmentation: a message whose header carries the
// more-fragments flag is continued by Fragment messages (type 7), the last
// of which clears the flag. TAO fragments large requests and replies this
// way. The ORB never fragments what it sends, but the two readers reassemble
// whatever a peer sends: ReadMessagePooled (and its copying form ReadMessage)
// into one pooled body, FrameAt in place. Both bound a train by its wire
// length, headers included, so a stream of empty fragments cannot grow a
// reader without limit.

// MsgFragment is the GIOP 1.1 Fragment message type.
const MsgFragment MsgType = 7

// FlagMoreFragments is bit 1 of the header flags octet.
const FlagMoreFragments = 0x02

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
	wire := HeaderLen + len(mb.b)
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
		if wire += HeaderLen + int(fh.Size); wire > MaxMessageSize {
			mb.Release()
			return Header{}, nil, fmt.Errorf("%w: fragment train", ErrTooLarge)
		}
		off := len(mb.b)
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
