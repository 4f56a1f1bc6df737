// Package frame provides the length-prefixed framing shared by the
// group-communication system and the naming service: a 4-byte big-endian
// payload length followed by the payload (a big-endian CDR stream whose
// alignment origin is the payload's first byte).
//
// One frame is one transport write and, whenever the transport delivers it
// whole, one transport read: senders build prefix and payload in a single
// buffer (Begin, Finish, Write), and a Reader hands out every frame a read
// brought in before it reads again.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"mead/internal/cdr"
)

// PrefixLen is the size of the length prefix in front of every payload.
const PrefixLen = 4

// MaxLen bounds frame payloads to guard against corrupt streams.
const MaxLen = 4 << 20

// ErrTooLarge reports an oversized frame.
var ErrTooLarge = errors.New("frame: frame too large")

// Begin starts a frame in e, which must be empty (fresh or Reset): it
// reserves the length prefix and makes the next byte the payload's CDR
// alignment origin, so the payload pads exactly as a stream encoded on its
// own would.
func Begin(e *cdr.Encoder) {
	e.Skip(PrefixLen)
	e.Rebase()
}

// Finish patches the length prefix Begin reserved and returns the complete
// frame, prefix included. It aliases e's buffer.
func Finish(e *cdr.Encoder) ([]byte, error) {
	buf := e.Bytes()
	if len(buf)-PrefixLen > MaxLen {
		return nil, ErrTooLarge
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-PrefixLen))
	return buf, nil
}

// Write finishes the frame begun in e and sends it in one transport write.
func Write(w io.Writer, e *cdr.Encoder) error {
	buf, err := Finish(e)
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	return nil
}

// readBufSize is a Reader's initial buffer: a burst of views, notices and
// small checkpoints, or a naming reply listing a few replicas, arrives in
// one read. A larger frame grows the buffer to its own size.
const readBufSize = 4096

// Reader reads frames from a stream through a buffer it owns: every frame
// one transport read delivered is handed out before the next read.
type Reader struct {
	r        io.Reader
	buf      []byte
	off, end int // buf[off:end] is read but not yet handed out
}

// NewReader returns a Reader on r. The buffer is allocated by the first
// Next.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next returns the next frame's payload. The payload aliases the Reader's
// buffer and is valid only until the next call — retain a copy, not the
// slice. A stream that ends between frames yields io.EOF; one that ends
// inside a frame, io.ErrUnexpectedEOF.
func (fr *Reader) Next() ([]byte, error) {
	need := PrefixLen
	for {
		if fr.end-fr.off >= PrefixLen {
			n := binary.BigEndian.Uint32(fr.buf[fr.off:])
			if n > MaxLen {
				return nil, ErrTooLarge
			}
			need = PrefixLen + int(n)
			if fr.end-fr.off >= need {
				start := fr.off + PrefixLen
				fr.off += need
				return fr.buf[start:fr.off:fr.off], nil
			}
		}
		fr.makeRoom(need)
		m, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += m
		if m == 0 {
			switch {
			case err == nil:
				return nil, io.ErrNoProgress
			case err == io.EOF && fr.end > fr.off:
				return nil, fmt.Errorf("frame: short frame: %w", io.ErrUnexpectedEOF)
			}
			return nil, err
		}
	}
}

// Buffered reports how many bytes have been read but not yet handed out as
// a frame. After Next has failed it tells whether the failure cut a frame
// short (positive) or fell between frames (zero).
func (fr *Reader) Buffered() int { return fr.end - fr.off }

// makeRoom arranges for buf[off:] to hold a frame of need bytes: the
// unconsumed tail moves to the front when it would not fit behind what was
// already handed out, and the buffer grows when the frame exceeds it.
func (fr *Reader) makeRoom(need int) {
	if fr.off == fr.end {
		fr.off, fr.end = 0, 0
	}
	if len(fr.buf)-fr.off >= need {
		return
	}
	buf := fr.buf
	if len(buf) < need {
		buf = make([]byte, max(need, readBufSize))
	}
	fr.end = copy(buf, fr.buf[fr.off:fr.end])
	fr.off = 0
	fr.buf = buf
}
