package cdr

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func orders() []ByteOrder { return []ByteOrder{BigEndian, LittleEndian} }

func TestByteOrderString(t *testing.T) {
	if BigEndian.String() != "big-endian" || LittleEndian.String() != "little-endian" {
		t.Fatalf("unexpected ByteOrder strings: %q %q", BigEndian, LittleEndian)
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	for _, order := range orders() {
		e := NewEncoder(order)
		e.WriteOctet(0xAB)
		e.WriteBool(true)
		e.WriteBool(false)
		e.WriteUShort(0xBEEF)
		e.WriteULong(0xDEADBEEF)
		e.WriteULongLong(0x0123456789ABCDEF)
		e.WriteLongLong(-1234567890123)

		d := NewDecoder(e.Bytes(), order)
		if v, err := d.ReadOctet(); err != nil || v != 0xAB {
			t.Fatalf("[%v] octet = %v, %v", order, v, err)
		}
		if v, err := d.ReadBool(); err != nil || !v {
			t.Fatalf("[%v] bool = %v, %v", order, v, err)
		}
		if v, err := d.ReadBool(); err != nil || v {
			t.Fatalf("[%v] bool = %v, %v", order, v, err)
		}
		if v, err := d.ReadUShort(); err != nil || v != 0xBEEF {
			t.Fatalf("[%v] ushort = %#x, %v", order, v, err)
		}
		if v, err := d.ReadULong(); err != nil || v != 0xDEADBEEF {
			t.Fatalf("[%v] ulong = %#x, %v", order, v, err)
		}
		if v, err := d.ReadULongLong(); err != nil || v != 0x0123456789ABCDEF {
			t.Fatalf("[%v] ulonglong = %#x, %v", order, v, err)
		}
		if v, err := d.ReadLongLong(); err != nil || v != -1234567890123 {
			t.Fatalf("[%v] longlong = %v, %v", order, v, err)
		}
		if d.Remaining() != 0 {
			t.Fatalf("[%v] %d bytes left over", order, d.Remaining())
		}
	}
}

func TestAlignmentPadding(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteOctet(1) // offset 0
	e.WriteULong(2) // must align to 4: pad 3
	if e.Len() != 8 {
		t.Fatalf("len after octet+ulong = %d, want 8", e.Len())
	}
	e.WriteOctet(3)     // offset 8
	e.WriteULongLong(4) // align to 16: pad 7
	if e.Len() != 24 {
		t.Fatalf("len after octet+ulonglong = %d, want 24", e.Len())
	}

	d := NewDecoder(e.Bytes(), BigEndian)
	if v, _ := d.ReadOctet(); v != 1 {
		t.Fatal("octet mismatch")
	}
	if v, _ := d.ReadULong(); v != 2 {
		t.Fatal("ulong mismatch")
	}
	if v, _ := d.ReadOctet(); v != 3 {
		t.Fatal("second octet mismatch")
	}
	if v, _ := d.ReadULongLong(); v != 4 {
		t.Fatal("ulonglong mismatch")
	}
}

func TestBigEndianWireFormat(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteULong(0x01020304)
	want := []byte{1, 2, 3, 4}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("big-endian ulong = % x, want % x", e.Bytes(), want)
	}
}

func TestLittleEndianWireFormat(t *testing.T) {
	e := NewEncoder(LittleEndian)
	e.WriteULong(0x01020304)
	want := []byte{4, 3, 2, 1}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("little-endian ulong = % x, want % x", e.Bytes(), want)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, order := range orders() {
		for _, s := range []string{"", "a", "timeofday", "IDL:mead/TimeOfDay:1.0", "embedded\x01bytes"} {
			e := NewEncoder(order)
			e.WriteString(s)
			d := NewDecoder(e.Bytes(), order)
			got, err := d.ReadString()
			if err != nil {
				t.Fatalf("[%v] ReadString(%q): %v", order, s, err)
			}
			if got != s {
				t.Fatalf("[%v] round trip %q -> %q", order, s, got)
			}
		}
	}
}

func TestStringWireFormat(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteString("hi")
	want := []byte{0, 0, 0, 3, 'h', 'i', 0}
	if !bytes.Equal(e.Bytes(), want) {
		t.Fatalf("string encoding = % x, want % x", e.Bytes(), want)
	}
}

func TestReadStringErrors(t *testing.T) {
	// zero length
	e := NewEncoder(BigEndian)
	e.WriteULong(0)
	if _, err := NewDecoder(e.Bytes(), BigEndian).ReadString(); !errors.Is(err, ErrBadString) {
		t.Fatalf("zero-length string: err = %v, want ErrBadString", err)
	}
	// length larger than buffer
	e = NewEncoder(BigEndian)
	e.WriteULong(1000)
	if _, err := NewDecoder(e.Bytes(), BigEndian).ReadString(); !errors.Is(err, ErrLengthOverflow) {
		t.Fatalf("overflow string: err = %v, want ErrLengthOverflow", err)
	}
	// missing NUL
	raw := []byte{0, 0, 0, 2, 'h', 'i'}
	if _, err := NewDecoder(raw, BigEndian).ReadString(); !errors.Is(err, ErrBadString) {
		t.Fatalf("missing NUL: err = %v, want ErrBadString", err)
	}
}

func TestOctetsRoundTrip(t *testing.T) {
	for _, order := range orders() {
		payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAA}, 52)}
		for _, p := range payloads {
			e := NewEncoder(order)
			e.WriteOctets(p)
			d := NewDecoder(e.Bytes(), order)
			got, err := d.ReadOctets()
			if err != nil {
				t.Fatalf("[%v] ReadOctets: %v", order, err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("[%v] octets % x -> % x", order, p, got)
			}
		}
	}
}

func TestReadOctetsCopies(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteOctets([]byte{1, 2, 3})
	buf := e.Bytes()
	d := NewDecoder(buf, BigEndian)
	got, err := d.ReadOctets()
	if err != nil {
		t.Fatal(err)
	}
	buf[4] = 99 // mutate the underlying stream
	if got[0] != 1 {
		t.Fatal("ReadOctets did not copy its result")
	}
}

func TestOctetsOverflow(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteULong(math.MaxUint32)
	if _, err := NewDecoder(e.Bytes(), BigEndian).ReadOctets(); !errors.Is(err, ErrLengthOverflow) {
		t.Fatalf("err = %v, want ErrLengthOverflow", err)
	}
}

func TestTruncatedReads(t *testing.T) {
	checks := []func(*Decoder) error{
		func(d *Decoder) error { _, err := d.ReadOctet(); return err },
		func(d *Decoder) error { _, err := d.ReadUShort(); return err },
		func(d *Decoder) error { _, err := d.ReadULong(); return err },
		func(d *Decoder) error { _, err := d.ReadULongLong(); return err },
		func(d *Decoder) error { _, err := d.ReadString(); return err },
		func(d *Decoder) error { _, err := d.ReadOctets(); return err },
	}
	for i, check := range checks {
		if err := check(NewDecoder(nil, BigEndian)); !errors.Is(err, ErrTruncated) {
			t.Errorf("check %d on empty buffer: err = %v, want ErrTruncated", i, err)
		}
	}
	// partial ulong
	if _, err := NewDecoder([]byte{1, 2}, BigEndian).ReadULong(); !errors.Is(err, ErrTruncated) {
		t.Errorf("partial ulong: err = %v, want ErrTruncated", err)
	}
}

// Property: any sequence of (tagged) primitive writes decodes back to the
// same values, in both byte orders.
func TestQuickMixedRoundTrip(t *testing.T) {
	type record struct {
		A uint16
		B uint32
		C uint64
		D bool
		S string
		O []byte
	}
	f := func(r record, little bool) bool {
		order := BigEndian
		if little {
			order = LittleEndian
		}
		e := NewEncoder(order)
		e.WriteUShort(r.A)
		e.WriteBool(r.D)
		e.WriteULongLong(r.C)
		e.WriteString(r.S)
		e.WriteOctets(r.O)
		e.WriteULong(r.B)

		d := NewDecoder(e.Bytes(), order)
		a, err := d.ReadUShort()
		if err != nil || a != r.A {
			return false
		}
		db, err := d.ReadBool()
		if err != nil || db != r.D {
			return false
		}
		c, err := d.ReadULongLong()
		if err != nil || c != r.C {
			return false
		}
		s, err := d.ReadString()
		if err != nil || s != r.S {
			return false
		}
		o, err := d.ReadOctets()
		if err != nil || !bytes.Equal(o, r.O) {
			return false
		}
		b, err := d.ReadULong()
		if err != nil || b != r.B {
			return false
		}
		return d.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary input bytes.
func TestQuickDecoderNeverPanics(t *testing.T) {
	f := func(raw []byte, little bool) bool {
		order := BigEndian
		if little {
			order = LittleEndian
		}
		d := NewDecoder(raw, order)
		for d.Remaining() > 0 {
			before := d.Remaining()
			_, _ = d.ReadString()
			_, _ = d.ReadOctets()
			_, _ = d.ReadULong()
			if _, err := d.ReadOctet(); err != nil {
				break
			}
			if d.Remaining() == before {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
