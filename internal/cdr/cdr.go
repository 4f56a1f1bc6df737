// Package cdr implements the subset of OMG Common Data Representation (CDR)
// marshalling that GIOP messages need: naturally aligned primitive types in
// either byte order, strings and octet sequences. An encapsulation (an IIOP
// profile, a stringified IOR) is an octet sequence whose first octet is the
// byte-order flag; package giop opens one with a fresh Decoder.
//
// Alignment is computed relative to the start of the CDR stream (offset 0 =
// the first byte handed to the Encoder or Decoder). GIOP message bodies and
// encapsulations each start their own stream, which is how this package is
// used by package giop, so encoder and decoder positions always agree.
package cdr

import (
	"errors"
	"fmt"
	"sync"
)

// ByteOrder is the CDR byte-order flag: 0 means big-endian, 1 little-endian,
// exactly as carried in GIOP headers and encapsulation prefixes.
type ByteOrder byte

// Byte orders. BigEndian is the zero value, matching CORBA's flag encoding.
const (
	BigEndian    ByteOrder = 0
	LittleEndian ByteOrder = 1
)

func (o ByteOrder) String() string {
	if o == LittleEndian {
		return "little-endian"
	}
	return "big-endian"
}

// Marshalling errors.
var (
	// ErrTruncated reports a read past the end of the buffer.
	ErrTruncated = errors.New("cdr: truncated stream")
	// ErrBadString reports a malformed CDR string (bad length or missing
	// NUL terminator).
	ErrBadString = errors.New("cdr: malformed string")
	// ErrLengthOverflow reports a sequence length too large for the
	// remaining buffer, a sign of a corrupt or hostile stream.
	ErrLengthOverflow = errors.New("cdr: sequence length exceeds remaining stream")
)

// Encoder builds a CDR stream. The zero value is not usable; use NewEncoder
// (or GetEncoder for the pooled marshalling fast path).
type Encoder struct {
	buf    []byte
	order  ByteOrder
	origin int // alignment origin: offset of the current stream's first byte
}

// encoderInitialCap pre-sizes fresh encoder buffers so typical GIOP
// messages (headers + small bodies) encode without growth reallocations.
const encoderInitialCap = 128

// maxPooledEncoderCap bounds the buffers the encoder pool retains, so one
// huge message does not pin its buffer forever.
const maxPooledEncoderCap = 64 << 10

var encoderPool = sync.Pool{
	New: func() any { return &Encoder{buf: make([]byte, 0, encoderInitialCap)} },
}

// NewEncoder returns an Encoder producing a stream in the given byte order.
func NewEncoder(order ByteOrder) *Encoder {
	return &Encoder{order: order, buf: make([]byte, 0, encoderInitialCap)}
}

// GetEncoder returns a pooled Encoder reset to the given byte order. The
// marshalling hot path recycles encoder buffers through this pool; return
// the encoder with Release once its Bytes have been consumed.
func GetEncoder(order ByteOrder) *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset(order)
	return e
}

// Release returns a pooled encoder for reuse. The caller must not touch e,
// or any slice previously obtained from Bytes, after Release.
func (e *Encoder) Release() {
	if cap(e.buf) > maxPooledEncoderCap {
		e.buf = make([]byte, 0, encoderInitialCap)
	}
	encoderPool.Put(e)
}

// Reset clears the encoder for reuse, keeping its allocated buffer.
func (e *Encoder) Reset(order ByteOrder) {
	e.buf = e.buf[:0]
	e.origin = 0
	e.order = order
}

// Bytes returns the encoded stream. The returned slice aliases the
// encoder's buffer; callers must not retain it across further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current stream length in bytes.
func (e *Encoder) Len() int { return len(e.buf) }

// Skip appends n zero bytes verbatim — space for a fixed-size prefix (e.g.
// a GIOP message header) that the caller patches after encoding the body.
func (e *Encoder) Skip(n int) {
	e.buf = append(e.buf, zeroPad[:n]...)
}

// Rebase makes the current position the stream's alignment origin, starting
// a spliced sub-stream — the encoding dual of Decoder.Rest. GIOP bodies and
// operation arguments each begin a fresh origin this way, so single-buffer
// message encoding pads identically to independently encoded sub-streams.
func (e *Encoder) Rebase() {
	e.origin = len(e.buf)
}

// zeroPad supplies alignment padding (max 8-byte alignment) and Skip
// scratch (max one GIOP/MEAD header).
var zeroPad [16]byte

// align pads the stream with zero bytes so the next write lands on a
// multiple of n relative to the alignment origin (n must be a power of two).
func (e *Encoder) align(n int) {
	if rem := (len(e.buf) - e.origin) % n; rem != 0 {
		e.buf = append(e.buf, zeroPad[:n-rem]...)
	}
}

// WriteOctet appends a single octet.
func (e *Encoder) WriteOctet(v byte) {
	e.buf = append(e.buf, v)
}

// WriteRaw appends bytes verbatim, without any alignment. It splices an
// independently encoded CDR sub-stream (e.g. operation arguments aligned
// relative to their own start) into this stream.
func (e *Encoder) WriteRaw(b []byte) {
	e.buf = append(e.buf, b...)
}

// WriteBool appends a CDR boolean (one octet, 0 or 1).
func (e *Encoder) WriteBool(v bool) {
	if v {
		e.WriteOctet(1)
	} else {
		e.WriteOctet(0)
	}
}

// WriteUShort appends an aligned 16-bit unsigned integer.
func (e *Encoder) WriteUShort(v uint16) {
	e.align(2)
	if e.order == LittleEndian {
		e.buf = append(e.buf, byte(v), byte(v>>8))
	} else {
		e.buf = append(e.buf, byte(v>>8), byte(v))
	}
}

// WriteULong appends an aligned 32-bit unsigned integer.
func (e *Encoder) WriteULong(v uint32) {
	e.align(4)
	if e.order == LittleEndian {
		e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	} else {
		e.buf = append(e.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
}

// WriteULongLong appends an aligned 64-bit unsigned integer.
func (e *Encoder) WriteULongLong(v uint64) {
	e.align(8)
	if e.order == LittleEndian {
		e.buf = append(e.buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	} else {
		e.buf = append(e.buf,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
}

// WriteLongLong appends an aligned 64-bit signed integer.
func (e *Encoder) WriteLongLong(v int64) { e.WriteULongLong(uint64(v)) }

// WriteString appends a CDR string: ulong length (including the trailing
// NUL), the bytes, then a NUL terminator.
func (e *Encoder) WriteString(s string) {
	e.WriteULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// WriteOctets appends a sequence<octet>: ulong length then the raw bytes.
func (e *Encoder) WriteOctets(b []byte) {
	e.WriteULong(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// Decoder consumes a CDR stream produced by Encoder (or a conforming CORBA
// peer). Methods return ErrTruncated when the stream is exhausted early.
//
// The decoder never copies or mutates buf; plain Read methods return copies,
// while ReadOctetsBorrow returns a slice aliasing buf (see the
// buffer-ownership rules in docs/PROTOCOL.md §8).
type Decoder struct {
	buf    []byte
	pos    int
	order  ByteOrder
	origin int // alignment origin: offset of the current stream's first byte
}

// NewDecoder returns a Decoder over buf interpreting multi-byte values in
// the given byte order.
func NewDecoder(buf []byte, order ByteOrder) *Decoder {
	return &Decoder{buf: buf, order: order}
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder returns a pooled Decoder over buf — the decode-side dual of
// GetEncoder. Return it with Release once the stream (and everything
// borrowed from it) is no longer needed; callers that never Release merely
// forgo reuse.
func GetDecoder(buf []byte, order ByteOrder) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.buf = buf
	d.pos = 0
	d.origin = 0
	d.order = order
	return d
}

// Release returns a pooled decoder for reuse. The caller must not touch d
// after Release; slices previously borrowed from the underlying buffer
// remain valid (the buffer's lifetime is governed by its own owner).
func (d *Decoder) Release() {
	d.buf = nil
	decoderPool.Put(d)
}

// Rebase makes the current position the stream's alignment origin, starting
// a spliced sub-stream in place — the decoding dual of Encoder.Rebase.
// DecodeRequest/DecodeReply use it to hand back the same decoder positioned
// at the operation arguments (their own alignment origin) without
// allocating a second decoder.
func (d *Decoder) Rebase() {
	d.origin = d.pos
}

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Rest returns the unread bytes without consuming them. Callers use it to
// start a fresh CDR stream (fresh alignment origin) over a spliced
// sub-stream such as operation arguments.
func (d *Decoder) Rest() []byte { return d.buf[d.pos:] }

func (d *Decoder) align(n int) error {
	rem := (d.pos - d.origin) % n
	if rem == 0 {
		return nil
	}
	next := d.pos + n - rem
	if next > len(d.buf) {
		d.pos = len(d.buf)
		return ErrTruncated
	}
	d.pos = next
	return nil
}

func (d *Decoder) take(n int) ([]byte, error) {
	if d.Remaining() < n {
		return nil, ErrTruncated
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// ReadOctet reads a single octet.
func (d *Decoder) ReadOctet() (byte, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// ReadBool reads a CDR boolean.
func (d *Decoder) ReadBool() (bool, error) {
	b, err := d.ReadOctet()
	return b != 0, err
}

// ReadUShort reads an aligned 16-bit unsigned integer.
func (d *Decoder) ReadUShort() (uint16, error) {
	if err := d.align(2); err != nil {
		return 0, err
	}
	b, err := d.take(2)
	if err != nil {
		return 0, err
	}
	if d.order == LittleEndian {
		return uint16(b[0]) | uint16(b[1])<<8, nil
	}
	return uint16(b[0])<<8 | uint16(b[1]), nil
}

// ReadULong reads an aligned 32-bit unsigned integer.
func (d *Decoder) ReadULong() (uint32, error) {
	if err := d.align(4); err != nil {
		return 0, err
	}
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	if d.order == LittleEndian {
		return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
	}
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]), nil
}

// ReadULongLong reads an aligned 64-bit unsigned integer.
func (d *Decoder) ReadULongLong() (uint64, error) {
	if err := d.align(8); err != nil {
		return 0, err
	}
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	if d.order == LittleEndian {
		return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56, nil
	}
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7]), nil
}

// ReadLongLong reads an aligned 64-bit signed integer.
func (d *Decoder) ReadLongLong() (int64, error) {
	v, err := d.ReadULongLong()
	return int64(v), err
}

// ReadString reads a CDR string. The result is a copy, safe to retain.
func (d *Decoder) ReadString() (string, error) {
	b, err := d.readStringBytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// ReadOctetsBorrow reads a sequence<octet> and returns a slice aliasing the
// decoder's buffer — the zero-copy fast path for the GIOP receive cycle.
// The slice is valid only as long as the underlying buffer (for pooled
// message bodies: until the body is released); callers that retain it past
// that point must copy first.
func (d *Decoder) ReadOctetsBorrow() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint32(d.Remaining()) < n {
		return nil, ErrLengthOverflow
	}
	b, err := d.take(int(n))
	if err != nil {
		return nil, err
	}
	// Cap the slice so appends by a careless caller cannot scribble on the
	// bytes that follow in the shared buffer.
	return b[:len(b):len(b)], nil
}

// ReadOctets reads a sequence<octet>. The returned slice is a copy.
func (d *Decoder) ReadOctets() ([]byte, error) {
	b, err := d.ReadOctetsBorrow()
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// ReadStringIntern reads a CDR string through an Interner: repeated values
// (operation names, repository ids) resolve to one shared immutable string
// with no per-read allocation. The result is a normal Go string, safe to
// retain.
func (d *Decoder) ReadStringIntern(it *Interner) (string, error) {
	b, err := d.readStringBytes()
	if err != nil {
		return "", err
	}
	return it.Intern(b), nil
}

// readStringBytes reads a CDR string and returns its bytes (sans NUL)
// aliasing the decoder's buffer.
func (d *Decoder) readStringBytes() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length string (must include NUL)", ErrBadString)
	}
	if uint32(d.Remaining()) < n {
		return nil, ErrLengthOverflow
	}
	b, err := d.take(int(n))
	if err != nil {
		return nil, err
	}
	if b[n-1] != 0 {
		return nil, fmt.Errorf("%w: missing NUL terminator", ErrBadString)
	}
	return b[:n-1], nil
}
