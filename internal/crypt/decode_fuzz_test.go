package crypt

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// decodeTransportLoop is the per-symbol decoder the group kernel replaced,
// kept as the oracle for error offsets: it walks every symbol through the
// lookup table and fails at the first one outside the alphabet.
func decodeTransportLoop(dst []byte, s string) error {
	want, ok := RawLen(len(s))
	if !ok {
		return fmt.Errorf("crypt: decode transport text: invalid length %d", len(s))
	}
	if len(dst) != want {
		return fmt.Errorf("crypt: decode transport text: dst length %d, want %d", len(dst), want)
	}
	si, di := 0, 0
	for len(s)-si >= 8 {
		var v uint64
		for j := 0; j < 8; j++ {
			c := transportDecodeMap[s[si+j]]
			if c == 0xFF {
				return fmt.Errorf("crypt: decode transport text: illegal character at offset %d", si+j)
			}
			v = v<<5 | uint64(c)
		}
		for j := 4; j >= 0; j-- {
			dst[di+j] = byte(v)
			v >>= 8
		}
		si += 8
		di += 5
	}
	if rem := len(s) - si; rem > 0 {
		var v uint64
		for j := 0; j < rem; j++ {
			c := transportDecodeMap[s[si+j]]
			if c == 0xFF {
				return fmt.Errorf("crypt: decode transport text: illegal character at offset %d", si+j)
			}
			v = v<<5 | uint64(c)
		}
		outBytes := rem * 5 / 8
		extra := uint(rem*5 - outBytes*8)
		if v&((1<<extra)-1) != 0 {
			return fmt.Errorf("crypt: decode transport text: non-canonical encoding")
		}
		v >>= extra
		for j := outBytes - 1; j >= 0; j-- {
			dst[di+j] = byte(v)
			v >>= 8
		}
	}
	return nil
}

// FuzzDecodeTransport checks the decoder differentially. Against
// referenceDecodeTransport, encoding/base32 (StdEncoding, NoPadding) plus
// the canonical-tail rule (a text is accepted only if it re-encodes to
// itself, which also rules out the newlines encoding/base32 skips):
// accept/reject agree, and an accepted text decodes to the same bytes.
// Against the per-symbol loop: a rejected text fails with the same error,
// so at the same offset. The decode runs into a window of a larger
// buffer, whose bytes outside the window must survive the kernel's wide
// stores.
func FuzzDecodeTransport(f *testing.F) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 39, 40, 41, 200} {
		raw := make([]byte, n)
		for i := range raw {
			raw[i] = byte(i*37 + 11)
		}
		enc := EncodeTransport(raw)
		f.Add(enc)
		if n > 0 {
			f.Add(enc[:len(enc)-1] + "9")
			f.Add("a" + enc[1:])
			f.Add(enc[:len(enc)/2] + "=" + enc[len(enc)/2+1:])
		}
	}
	f.Add("AB")
	f.Add("MZXW6YTB\nOI")
	f.Add("not base32 at all!")
	f.Add("74")         // canonical encoding of 0xFF
	f.Add("75")         // same data bits, nonzero slack: rejected
	f.Add("7")          // impossible length
	f.Add("a2")         // lowercase: outside the alphabet
	f.Add("MZXW6YTBOI") // "foobar"
	f.Add(strings.Repeat("A", 16))

	f.Fuzz(func(t *testing.T, s string) {
		wantRaw, refErr := referenceDecodeTransport(s)
		got, err := DecodeTransport(s)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeTransport(%q): err = %v, encoding/base32 + re-encode err = %v", s, err, refErr)
		}
		if err == nil && !bytes.Equal(got, wantRaw) {
			t.Fatalf("DecodeTransport(%q) = %x, encoding/base32 = %x", s, got, wantRaw)
		}

		n, ok := RawLen(len(s))
		if !ok {
			n = 0
		}
		buf := bytes.Repeat([]byte{0xA5}, n+16)
		oracle := make([]byte, n)
		intoErr := DecodeTransportInto(buf[8:8+n:8+n], s)
		loopErr := decodeTransportLoop(oracle, s)
		if fmt.Sprint(intoErr) != fmt.Sprint(loopErr) {
			t.Fatalf("DecodeTransportInto(%q) error %v, per-symbol loop %v", s, intoErr, loopErr)
		}
		for i, b := range append(buf[:8:8], buf[8+n:]...) {
			if b != 0xA5 {
				t.Fatalf("DecodeTransportInto(%q) wrote outside dst (guard byte %d = %#x)", s, i, b)
			}
		}
		if intoErr == nil && !bytes.Equal(buf[8:8+n], oracle) {
			t.Fatalf("DecodeTransportInto(%q) = %x, per-symbol loop %x", s, buf[8:8+n], oracle)
		}
	})
}

// BenchmarkDecodeTransport decodes a 200 KB container-sized text.
func BenchmarkDecodeTransport(b *testing.B) {
	raw := make([]byte, 200<<10)
	for i := range raw {
		raw[i] = byte(i * 131)
	}
	enc := EncodeTransport(raw)
	dst := make([]byte, len(raw))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeTransportInto(dst, enc); err != nil {
			b.Fatal(err)
		}
	}
}
