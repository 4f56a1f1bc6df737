package frame

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"
	"testing/iotest"
	"testing/quick"

	"mead/internal/cdr"
)

// build renders payloads as a stream of frames the way senders do.
func build(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	var stream bytes.Buffer
	e := cdr.NewEncoder(cdr.BigEndian)
	for _, p := range payloads {
		e.Reset(cdr.BigEndian)
		Begin(e)
		e.WriteRaw(p)
		if err := Write(&stream, e); err != nil {
			t.Fatal(err)
		}
	}
	return stream.Bytes()
}

// readAll drains r, copying each payload out before the next call.
func readAll(r *Reader) ([][]byte, error) {
	var got [][]byte
	for {
		p, err := r.Next()
		if err != nil {
			return got, err
		}
		got = append(got, append([]byte{}, p...))
	}
}

// countingReader counts Read calls and serves at most chunk bytes per call
// (everything available when chunk is 0).
type countingReader struct {
	data  []byte
	chunk int
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	if c.chunk > 0 && n > c.chunk {
		n = c.chunk
	}
	n = copy(p[:n], c.data)
	c.data = c.data[n:]
	return n, nil
}

var samplePayloads = [][]byte{nil, []byte("x"), bytes.Repeat([]byte{7}, 1000), {}, []byte("tail")}

func TestRoundTrip(t *testing.T) {
	got, err := readAll(NewReader(bytes.NewReader(build(t, samplePayloads...))))
	if err != io.EOF {
		t.Fatalf("stream ended with %v, want io.EOF", err)
	}
	if len(got) != len(samplePayloads) {
		t.Fatalf("got %d frames, want %d", len(got), len(samplePayloads))
	}
	for i, p := range samplePayloads {
		if !bytes.Equal(got[i], p) {
			t.Fatalf("frame %d: % x, want % x", i, got[i], p)
		}
	}
}

// One Write call carries prefix and payload together, and the payload's CDR
// alignment starts at its own first byte, not at the prefix.
func TestFrameIsOneWriteWithItsOwnAlignmentOrigin(t *testing.T) {
	var w writeLog
	e := cdr.NewEncoder(cdr.BigEndian)
	Begin(e)
	e.WriteOctet(9)
	e.WriteULongLong(0x0102030405060708) // pads to offset 8 of the payload
	if err := Write(&w, e); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 1 {
		t.Fatalf("%d writes, want 1", len(w.writes))
	}
	const want = "00000010" + "09" + "00000000000000" + "0102030405060708"
	if got := hex.EncodeToString(w.writes[0]); got != want {
		t.Fatalf("frame %s, want %s", got, want)
	}
}

type writeLog struct{ writes [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte{}, p...))
	return len(p), nil
}

// Several frames that one read delivered are all handed out before the
// transport is read again.
func TestReaderDrainsEveryFrameOfARead(t *testing.T) {
	src := &countingReader{data: build(t, []byte("one"), []byte("two"), []byte("three"))}
	r := NewReader(src)
	for i, want := range []string{"one", "two", "three"} {
		p, err := r.Next()
		if err != nil || string(p) != want {
			t.Fatalf("frame %d: %q, %v", i, p, err)
		}
		if src.reads != 1 {
			t.Fatalf("frame %d cost %d reads, want the first read to serve all three", i, src.reads)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// The stream may be cut anywhere: at every chunk size from one byte up, and
// with a one-byte-at-a-time reader, the frames come out the same.
func TestReaderAcrossEveryByteBoundary(t *testing.T) {
	payloads := append([][]byte{bytes.Repeat([]byte{0xAB}, readBufSize+100)}, samplePayloads...)
	stream := build(t, payloads...)
	check := func(name string, src io.Reader) {
		got, err := readAll(NewReader(src))
		if err != io.EOF || len(got) != len(payloads) {
			t.Fatalf("%s: %d frames, %v", name, len(got), err)
		}
		for i := range payloads {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("%s: frame %d differs", name, i)
			}
		}
	}
	for chunk := 1; chunk <= 64; chunk++ {
		check("chunked", &countingReader{data: stream, chunk: chunk})
	}
	check("one byte", iotest.OneByteReader(bytes.NewReader(stream)))
	check("data with EOF", iotest.DataErrReader(bytes.NewReader(stream)))
}

// A frame is handed out at the byte that completes it: the cut position
// decides which Next returns, never what it returns.
func TestReaderCutAtEachOffset(t *testing.T) {
	stream := build(t, []byte("alpha"), []byte("bravo!"))
	for cut := 0; cut <= len(stream); cut++ {
		src := io.MultiReader(bytes.NewReader(stream[:cut]), bytes.NewReader(stream[cut:]))
		got, err := readAll(NewReader(src))
		if err != io.EOF || len(got) != 2 || string(got[0]) != "alpha" || string(got[1]) != "bravo!" {
			t.Fatalf("cut %d: %q, %v", cut, got, err)
		}
	}
}

func TestTooLarge(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	Begin(e)
	e.WriteRaw(make([]byte, MaxLen+1))
	if err := Write(io.Discard, e); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Write err = %v", err)
	}
	hdr := binary.BigEndian.AppendUint32(nil, MaxLen+1)
	if _, err := NewReader(bytes.NewReader(hdr)).Next(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Next err = %v", err)
	}
	// Exactly MaxLen passes both ways.
	e.Reset(cdr.BigEndian)
	Begin(e)
	e.WriteRaw(make([]byte, MaxLen))
	var stream bytes.Buffer
	if err := Write(&stream, e); err != nil {
		t.Fatal(err)
	}
	if p, err := NewReader(&stream).Next(); err != nil || len(p) != MaxLen {
		t.Fatalf("MaxLen frame: %d bytes, %v", len(p), err)
	}
}

func TestShortStream(t *testing.T) {
	stream := build(t, []byte("abcdef"))
	for cut := 1; cut < len(stream); cut++ {
		_, err := NewReader(bytes.NewReader(stream[:cut])).Next()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("stream cut at %d: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	if _, err := NewReader(bytes.NewReader(nil)).Next(); err != io.EOF {
		t.Fatalf("empty stream: %v, want bare io.EOF", err)
	}
	if _, err := NewReader(iotest.ErrReader(io.ErrClosedPipe)).Next(); err != io.ErrClosedPipe {
		t.Fatalf("transport error: %v", err)
	}
}

// A payload stays intact until the next call and may be overwritten by it:
// callers retain copies.
func TestPayloadValidUntilNextCall(t *testing.T) {
	big := bytes.Repeat([]byte{1}, readBufSize-PrefixLen-10)
	// The second frame does not fit behind the first, so reading it moves
	// the buffer's contents.
	r := NewReader(&countingReader{data: build(t, big, bytes.Repeat([]byte{2}, 64)), chunk: readBufSize - 4})
	first, err := r.Next()
	if err != nil || !bytes.Equal(first, big) {
		t.Fatalf("first frame: %d bytes, %v", len(first), err)
	}
	if cap(first) != len(first) {
		t.Fatalf("payload capacity %d exceeds its length %d: an append would write into the next frame", cap(first), len(first))
	}
	second, err := r.Next()
	if err != nil || len(second) != 64 || second[0] != 2 {
		t.Fatalf("second frame: %d bytes, %v", len(second), err)
	}
	if first[0] == 1 {
		t.Fatal("the first payload survived the next call; this test no longer exercises the aliasing rule")
	}
}

func TestReaderFramesDoNotAllocate(t *testing.T) {
	stream := build(t, bytes.Repeat([]byte{3}, 100))
	src := &repeatReader{frame: stream}
	r := NewReader(src)
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("%v allocs per frame, want 0", avg)
	}
}

// repeatReader serves the same frame forever, as many whole copies per read
// as fit.
type repeatReader struct{ frame []byte }

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for len(p)-n >= len(r.frame) {
		n += copy(p[n:], r.frame)
	}
	return n, nil
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(payloads [][]byte, chunk uint8) bool {
		got, err := readAll(NewReader(&countingReader{data: build(t, payloads...), chunk: int(chunk)}))
		if err != io.EOF || len(got) != len(payloads) {
			return false
		}
		for i := range payloads {
			if !bytes.Equal(got[i], payloads[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// FuzzReader feeds arbitrary streams, cut at an arbitrary chunk size, to the
// reader. Whatever comes out must be a prefix of what a plain reference
// parse of the same bytes yields, and the stream must end with the matching
// error.
func FuzzReader(f *testing.F) {
	// Frames as the GCS and naming encoders produce them (gcs hello, join,
	// deliver, view; namesvc resolve request and not-found reply).
	for _, s := range []string{
		"0000000b0100000000000003723100",
		"00000012020000000000000a74696d656f6664617900",
		"000000380a0000000000000a74696d656f6664617900000000000000010203040506070800000003723200000000000c636865636b706f696e742d37",
		"000000510b0000000000000a74696d656f6664617900000000000000000000000000000300000000000000090000000300000003723100000000000472323200000000117265636f766572792d6d616e6167657200",
		"00000015030000000000000d74696d656f666461792f723200",
		"0000000102",
	} {
		b, err := hex.DecodeString(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, uint8(0))
		f.Add(append(b, b...), uint8(3))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(1))
	f.Fuzz(func(t *testing.T, stream []byte, chunk uint8) {
		want, wantErr := referenceParse(stream)
		got, err := readAll(NewReader(&countingReader{data: stream, chunk: int(chunk)}))
		if len(got) != len(want) {
			t.Fatalf("%d frames, want %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("frame %d differs", i)
			}
		}
		if !errors.Is(err, wantErr) {
			t.Fatalf("ended with %v, want %v", err, wantErr)
		}
	})
}

func referenceParse(stream []byte) ([][]byte, error) {
	var out [][]byte
	for {
		if len(stream) == 0 {
			return out, io.EOF
		}
		if len(stream) < PrefixLen {
			return out, io.ErrUnexpectedEOF
		}
		n := binary.BigEndian.Uint32(stream)
		if n > MaxLen {
			return out, ErrTooLarge
		}
		if uint32(len(stream)-PrefixLen) < n {
			return out, io.ErrUnexpectedEOF
		}
		out = append(out, stream[PrefixLen:PrefixLen+int(n)])
		stream = stream[PrefixLen+int(n):]
	}
}
