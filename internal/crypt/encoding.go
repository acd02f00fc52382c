package crypt

import (
	"encoding/base32"
	"encoding/binary"
	"fmt"
)

// transportAlphabet is the Base32 alphabet used for ciphertext transport
// (RFC 4648 standard alphabet, unpadded).
const transportAlphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567"

// transportEncoding is the Base32 encoder used for ciphertext transport.
// The 2011 extension Base32-encoded ciphertext before substituting it into
// the docContents / delta fields so the server stores printable text that
// survives URL-encoding untouched.
var transportEncoding = base32.StdEncoding.WithPadding(base32.NoPadding)

// transportDecodeMap maps an input byte to its 5-bit symbol value, with
// 0xFF marking bytes outside the alphabet. A direct table lets the decoder
// run without encoding/base32's block bookkeeping or any allocation.
var transportDecodeMap = func() (m [256]byte) {
	for i := range m {
		m[i] = 0xFF
	}
	for i := 0; i < len(transportAlphabet); i++ {
		m[transportAlphabet[i]] = byte(i)
	}
	return
}()

// EncodeTransport encodes raw ciphertext bytes into the printable Base32
// form stored by the server.
func EncodeTransport(raw []byte) string {
	return transportEncoding.EncodeToString(raw)
}

// EncodeTransportInto encodes raw into dst without allocating. dst must be
// exactly TransportLen(len(raw)) bytes. It exists for the serialization
// kernels, which write each record's characters directly into its
// fixed-offset slot of one shared buffer.
func EncodeTransportInto(dst, raw []byte) {
	transportEncoding.Encode(dst, raw)
}

// DecodeTransport decodes the printable Base32 form back to raw bytes.
// Only canonical encodings are accepted: a final symbol with nonzero
// padding bits decodes leniently in encoding/base32 but would not
// re-serialize to the same text, which breaks the invariant that a stored
// container equals the re-serialization of its parse.
func DecodeTransport(s string) ([]byte, error) {
	n, ok := RawLen(len(s))
	if !ok {
		return nil, fmt.Errorf("crypt: decode transport text: invalid length %d", len(s))
	}
	raw := make([]byte, n)
	if err := DecodeTransportInto(raw, s); err != nil {
		return nil, err
	}
	return raw, nil
}

// DecodeTransportInto decodes s into dst without allocating. dst must be
// exactly the length RawLen reports for len(s). Canonicality is enforced
// by construction: an unpadded Base32 text is non-canonical exactly when
// the final symbol carries nonzero bits below the last full output byte,
// which the tail handling checks directly — no re-encoding pass.
//
// Whole 8-symbol groups take a branch-light kernel: eight table lookups,
// one OR'ed validity test and one 8-byte store, whose three bytes past
// the group's five the next group overwrites. A group with an illegal
// symbol, the last group (no room for the wide store) and the tail take
// the per-symbol loop, which names the offending offset.
func DecodeTransportInto(dst []byte, s string) error {
	want, ok := RawLen(len(s))
	if !ok {
		return fmt.Errorf("crypt: decode transport text: invalid length %d", len(s))
	}
	if len(dst) != want {
		return fmt.Errorf("crypt: decode transport text: dst length %d, want %d", len(dst), want)
	}
	m := &transportDecodeMap
	si, di := 0, 0
	for ; len(s)-si >= 8 && len(dst)-di >= 8; si, di = si+8, di+5 {
		g := s[si : si+8]
		c0, c1, c2, c3 := m[g[0]], m[g[1]], m[g[2]], m[g[3]]
		c4, c5, c6, c7 := m[g[4]], m[g[5]], m[g[6]], m[g[7]]
		if (c0|c1|c2|c3|c4|c5|c6|c7)&0xE0 != 0 {
			break
		}
		binary.BigEndian.PutUint64(dst[di:], uint64(c0)<<59|uint64(c1)<<54|uint64(c2)<<49|uint64(c3)<<44|
			uint64(c4)<<39|uint64(c5)<<34|uint64(c6)<<29|uint64(c7)<<24)
	}
	for len(s)-si >= 8 {
		var v uint64
		for j := 0; j < 8; j++ {
			c := m[s[si+j]]
			if c == 0xFF {
				return fmt.Errorf("crypt: decode transport text: illegal character at offset %d", si+j)
			}
			v = v<<5 | uint64(c)
		}
		dst[di+0] = byte(v >> 32)
		dst[di+1] = byte(v >> 24)
		dst[di+2] = byte(v >> 16)
		dst[di+3] = byte(v >> 8)
		dst[di+4] = byte(v)
		si += 8
		di += 5
	}
	if rem := len(s) - si; rem > 0 {
		var v uint64
		for j := 0; j < rem; j++ {
			c := m[s[si+j]]
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

// TransportLen reports the number of printable characters needed to carry
// rawLen ciphertext bytes (the 8/5 Base32 expansion, unpadded).
func TransportLen(rawLen int) int {
	return (rawLen*8 + 4) / 5
}

// RawLen reports the number of raw bytes an unpadded Base32 text of encLen
// characters decodes to, and whether encLen is a length any raw byte count
// actually encodes to (encLen mod 8 must be 0, 2, 4, 5, or 7; the inverse
// of TransportLen is a bijection on those residues).
func RawLen(encLen int) (int, bool) {
	if encLen < 0 {
		return 0, false
	}
	switch encLen % 8 {
	case 0, 2, 4, 5, 7:
		return encLen * 5 / 8, true
	default: // 1, 3, 6 never arise from whole input bytes
		return 0, false
	}
}
