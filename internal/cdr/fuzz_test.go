package cdr

import (
	"testing"
)

// FuzzReadString guards the shared string parse (readStringBytes) behind
// ReadString, ReadStringIntern, and the borrow decoders: arbitrary bytes
// must never panic or read out of bounds, and the interned and plain
// decodes of the same stream must agree.
func FuzzReadString(f *testing.F) {
	good := NewEncoder(BigEndian)
	good.WriteString("ping")
	f.Add(good.Bytes(), true)
	two := NewEncoder(LittleEndian)
	two.WriteString("")
	two.WriteString("a longer string that overflows the small path")
	f.Add(two.Bytes(), false)
	f.Add([]byte{}, true)
	f.Add([]byte{0, 0, 0, 4, 'a', 'b'}, true)            // length past end
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0}, true) // huge length
	f.Add([]byte{0, 0, 0, 1, 0}, true)                   // empty string, NUL only
	f.Add([]byte{0, 0, 0, 2, 'x', 'y'}, false)           // missing terminator

	it := NewInterner(64)
	f.Fuzz(func(t *testing.T, data []byte, big bool) {
		order := LittleEndian
		if big {
			order = BigEndian
		}
		d1 := NewDecoder(data, order)
		s1, err1 := d1.ReadString()

		d2 := GetDecoder(data, order)
		s2, err2 := d2.ReadStringIntern(it)
		d2.Release()

		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("ReadString err=%v, ReadStringIntern err=%v", err1, err2)
		}
		if err1 == nil {
			if s1 != s2 {
				t.Fatalf("ReadString %q != ReadStringIntern %q", s1, s2)
			}
			// A second interned read of the same bytes must hit the cache
			// and still agree.
			d3 := GetDecoder(data, order)
			s3, err3 := d3.ReadStringIntern(it)
			d3.Release()
			if err3 != nil || s3 != s1 {
				t.Fatalf("cached intern read: %q, %v", s3, err3)
			}
		}
	})
}

// FuzzDecoderStream drives a mixed read sequence over arbitrary bytes so the
// borrow variants (capacity-capped aliases) and alignment logic can't read
// past the buffer.
func FuzzDecoderStream(f *testing.F) {
	e := NewEncoder(BigEndian)
	e.WriteULong(7)
	e.WriteOctets([]byte{1, 2, 3})
	e.WriteString("op")
	e.WriteUShort(99)
	f.Add(e.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, order := range []ByteOrder{BigEndian, LittleEndian} {
			d := GetDecoder(data, order)
			_, _ = d.ReadULong()
			if b, err := d.ReadOctetsBorrow(); err == nil {
				if len(b) > len(data) || cap(b) != len(b) {
					t.Fatalf("borrow escapes body: len %d cap %d body %d", len(b), cap(b), len(data))
				}
			}
			_, _ = d.ReadString()
			_, _ = d.ReadUShort()
			d.Release()
		}
	})
}
