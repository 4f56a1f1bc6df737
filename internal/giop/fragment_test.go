package giop

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"mead/internal/cdr"
)

// fragmentMessage splits a complete GIOP message (header + body) into wire
// messages whose bodies are at most maxBody bytes, as a fragmenting peer
// would send it. A message that already fits is returned unchanged as a
// single element. Each emitted frame owns its backing array, so later frames
// can never clobber earlier ones.
func fragmentMessage(raw []byte, maxBody int) ([][]byte, error) {
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

func bigRequest(payload int) []byte {
	return EncodeRequest(cdr.BigEndian, RequestHeader{
		RequestID:        9,
		ResponseExpected: true,
		ObjectKey:        MakeObjectKey("s", "o"),
		Operation:        "bulk",
	}, func(e *cdr.Encoder) {
		e.WriteOctets(bytes.Repeat([]byte{0xAB}, payload))
	})
}

func TestFragmentMessageSmallUnchanged(t *testing.T) {
	msg := bigRequest(10)
	frames, err := fragmentMessage(msg, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || !bytes.Equal(frames[0], msg) {
		t.Fatalf("small message was fragmented into %d frames", len(frames))
	}
}

func TestFragmentAndReassembleRoundTrip(t *testing.T) {
	msg := bigRequest(1000)
	frames, err := fragmentMessage(msg, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) < 8 {
		t.Fatalf("frames = %d, want many", len(frames))
	}
	// First frame is the original type with the more-flag; the rest are
	// Fragment messages.
	h0, err := ParseHeader(frames[0][:HeaderLen])
	if err != nil {
		t.Fatal(err)
	}
	if h0.Type != MsgRequest || !h0.Fragmented {
		t.Fatalf("first frame header = %+v", h0)
	}
	hn, err := ParseHeader(frames[len(frames)-1][:HeaderLen])
	if err != nil {
		t.Fatal(err)
	}
	if hn.Type != MsgFragment || hn.Fragmented {
		t.Fatalf("last frame header = %+v", hn)
	}

	var wire bytes.Buffer
	for _, f := range frames {
		wire.Write(f)
	}
	h, body, err := ReadMessage(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != MsgRequest || h.Fragmented {
		t.Fatalf("assembled header = %+v", h)
	}
	if !bytes.Equal(body, msg[HeaderLen:]) {
		t.Fatal("assembled body differs from original")
	}
	hdr, args, err := DecodeRequest(h.Order, body)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Operation != "bulk" {
		t.Fatalf("operation = %q", hdr.Operation)
	}
	data, err := args.ReadOctets()
	if err != nil || len(data) != 1000 {
		t.Fatalf("payload = %d bytes, %v", len(data), err)
	}
}

func TestReadFrameReassemblesFragments(t *testing.T) {
	msg := bigRequest(600)
	frames, err := fragmentMessage(msg, 100)
	if err != nil {
		t.Fatal(err)
	}
	wire := bytes.Join(frames, nil)
	f, n, err := FrameAt(wire)
	if err != nil || n != len(wire) {
		t.Fatalf("FrameAt = %d, %v; want the whole %d-byte train", n, err, len(wire))
	}
	if f.Kind != FrameGIOP || f.Header.Type != MsgRequest || f.Header.Fragmented {
		t.Fatalf("frame = %+v", f.Header)
	}
	// Raw preserves every wire byte (pass-through fidelity).
	if !bytes.Equal(f.Raw, wire) {
		t.Fatalf("raw = %d bytes, wire = %d", len(f.Raw), len(wire))
	}
	// Body is the assembled logical body.
	if !bytes.Equal(f.Body(), msg[HeaderLen:]) || int(f.Header.Size) != len(f.Body()) {
		t.Fatal("assembled frame body differs")
	}
	// The train counts only once its last fragment is in.
	requireWaitsAtEveryBoundary(t, wire)
}

// TestFragmentTrainBoundedByWireLength: a train of empty fragments has no
// body to speak of, but its headers alone pass MaxMessageSize. Both readers
// must refuse it instead of holding every header.
func TestFragmentTrainBoundedByWireLength(t *testing.T) {
	const fragments = MaxMessageSize/HeaderLen + 1
	wire := make([]byte, 0, (fragments+1)*HeaderLen)
	wire = append(wire, EncodeHeader(Header{Major: 1, Minor: 1, Type: MsgRequest, Fragmented: true})...)
	more := EncodeHeader(Header{Major: 1, Minor: 1, Type: MsgFragment, Fragmented: true})
	for i := 0; i < fragments; i++ {
		wire = append(wire, more...)
	}
	if _, _, err := FrameAt(wire); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("FrameAt: err = %v, want ErrTooLarge", err)
	}
	if _, _, err := ReadMessagePooled(bytes.NewReader(wire)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ReadMessagePooled: err = %v, want ErrTooLarge", err)
	}
}

// TestFragmentFramesIndependent guards against the aliasing bug where
// frames shared a growing backing array, so appending a later frame could
// scribble over an earlier one: every emitted frame must still carry its
// exact header and body chunk after the whole train has been built.
func TestFragmentFramesIndependent(t *testing.T) {
	const payload, maxBody = 1000, 128
	msg := bigRequest(payload)
	body := msg[HeaderLen:]
	frames, err := fragmentMessage(msg, maxBody)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i, fr := range frames {
		h, err := ParseHeader(fr[:HeaderLen])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		chunk := fr[HeaderLen:]
		if int(h.Size) != len(chunk) {
			t.Fatalf("frame %d: header size %d, body %d", i, h.Size, len(chunk))
		}
		if !bytes.Equal(chunk, body[off:off+len(chunk)]) {
			t.Fatalf("frame %d: body chunk corrupted", i)
		}
		wantMore := off+len(chunk) < len(body)
		if h.Fragmented != wantMore {
			t.Fatalf("frame %d: more-fragments = %v, want %v", i, h.Fragmented, wantMore)
		}
		off += len(chunk)
	}
	if off != len(body) {
		t.Fatalf("frames cover %d bytes, body is %d", off, len(body))
	}
	// Writing into one frame's spare capacity must not leak into another.
	for i := range frames {
		frames[i] = append(frames[i], 0xFF)
	}
	off = 0
	for i, fr := range frames {
		chunk := fr[HeaderLen : len(fr)-1]
		if !bytes.Equal(chunk, body[off:off+len(chunk)]) {
			t.Fatalf("frame %d aliases a sibling's backing array", i)
		}
		off += len(chunk)
	}
}

func TestReadMessagePooledRoundTrip(t *testing.T) {
	msg := bigRequest(1000)
	frames, err := fragmentMessage(msg, 128)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	for _, f := range frames {
		wire.Write(f)
	}
	h, mb, err := ReadMessagePooled(&wire)
	if err != nil {
		t.Fatal(err)
	}
	defer mb.Release()
	if h.Type != MsgRequest || h.Fragmented {
		t.Fatalf("assembled header = %+v", h)
	}
	if int(h.Size) != len(mb.Bytes()) {
		t.Fatalf("header size %d, body %d", h.Size, len(mb.Bytes()))
	}
	if !bytes.Equal(mb.Bytes(), msg[HeaderLen:]) {
		t.Fatal("assembled body differs from original")
	}
}

func TestReadMessagePooledRejectsWrongContinuation(t *testing.T) {
	msg := bigRequest(600)
	frames, err := fragmentMessage(msg, 100)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	wire.Write(frames[0])
	wire.Write(EncodeMessage(cdr.BigEndian, MsgReply, nil))
	if _, _, err := ReadMessagePooled(&wire); err == nil {
		t.Fatal("wrong continuation accepted")
	}
}

func TestFragmentErrors(t *testing.T) {
	msg := bigRequest(100)
	if _, err := fragmentMessage(msg, 0); err == nil {
		t.Fatal("zero fragment size accepted")
	}
	if _, err := fragmentMessage(msg[:8], 64); err == nil {
		t.Fatal("short message accepted")
	}
	truncated := append([]byte(nil), msg...)
	truncated = truncated[:len(truncated)-4]
	if _, err := fragmentMessage(truncated, 64); err == nil {
		t.Fatal("length-mismatched message accepted")
	}
}

func TestReassemblyRejectsWrongContinuation(t *testing.T) {
	msg := bigRequest(600)
	frames, err := fragmentMessage(msg, 100)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	wire.Write(frames[0])
	// Follow with a non-Fragment message instead of the continuation.
	wire.Write(EncodeMessage(cdr.BigEndian, MsgReply, nil))
	if _, _, err := ReadMessage(&wire); err == nil {
		t.Fatal("wrong continuation accepted")
	}
}

func TestQuickFragmentRoundTrip(t *testing.T) {
	f := func(payloadLen uint16, fragSize uint8) bool {
		size := int(payloadLen%4000) + 1
		frag := int(fragSize%200) + 16
		msg := bigRequest(size)
		frames, err := fragmentMessage(msg, frag)
		if err != nil {
			return false
		}
		var wire bytes.Buffer
		for _, fr := range frames {
			wire.Write(fr)
		}
		_, body, err := ReadMessage(&wire)
		if err != nil {
			return false
		}
		return bytes.Equal(body, msg[HeaderLen:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
