package giop

import (
	"bytes"
	"testing"
	"testing/quick"

	"mead/internal/cdr"
)

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
	frames, err := FragmentMessage(msg, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || !bytes.Equal(frames[0], msg) {
		t.Fatalf("small message was fragmented into %d frames", len(frames))
	}
}

func TestFragmentAndReassembleRoundTrip(t *testing.T) {
	msg := bigRequest(1000)
	frames, err := FragmentMessage(msg, 128)
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
	frames, err := FragmentMessage(msg, 100)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	for _, f := range frames {
		wire.Write(f)
	}
	wireLen := wire.Len()
	f, err := ReadFrame(&wire)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != FrameGIOP || f.Header.Type != MsgRequest || f.Header.Fragmented {
		t.Fatalf("frame = %+v", f.Header)
	}
	// Raw preserves every wire byte (pass-through fidelity).
	if len(f.Raw) != wireLen {
		t.Fatalf("raw = %d bytes, wire = %d", len(f.Raw), wireLen)
	}
	// Body is the assembled logical body.
	if !bytes.Equal(f.Body(), msg[HeaderLen:]) {
		t.Fatal("assembled frame body differs")
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
	frames, err := FragmentMessage(msg, maxBody)
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
	frames, err := FragmentMessage(msg, 128)
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
	frames, err := FragmentMessage(msg, 100)
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
	if _, err := FragmentMessage(msg, 0); err == nil {
		t.Fatal("zero fragment size accepted")
	}
	if _, err := FragmentMessage(msg[:8], 64); err == nil {
		t.Fatal("short message accepted")
	}
	truncated := append([]byte(nil), msg...)
	truncated = truncated[:len(truncated)-4]
	if _, err := FragmentMessage(truncated, 64); err == nil {
		t.Fatal("length-mismatched message accepted")
	}
}

func TestReassemblyRejectsWrongContinuation(t *testing.T) {
	msg := bigRequest(600)
	frames, err := FragmentMessage(msg, 100)
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
		frames, err := FragmentMessage(msg, frag)
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
