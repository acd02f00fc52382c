package recb

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"privedit/internal/blockdoc"
	"privedit/internal/crypt"
)

func newCodec(t *testing.T, seed uint64) *Codec {
	t.Helper()
	key := make([]byte, crypt.KeySize)
	for i := range key {
		key[i] = byte(i * 3)
	}
	c, err := New(key, crypt.NewSeededNonceSource(seed))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func chunksOf(s string, b int) [][]byte {
	var out [][]byte
	for len(s) > b {
		out = append(out, []byte(s[:b]))
		s = s[b:]
	}
	if len(s) > 0 {
		out = append(out, []byte(s))
	}
	return out
}

func TestCodecIdentity(t *testing.T) {
	c := newCodec(t, 1)
	if c.Name() != "rECB" || c.ID() != SchemeID {
		t.Errorf("identity = %s/%d", c.Name(), c.ID())
	}
	if c.RecordBytes() != 17 || c.PrefixBytes() != 16 || c.TrailerBytes() != 0 || c.MaxChars() != 8 {
		t.Errorf("geometry = %d/%d/%d/%d", c.RecordBytes(), c.PrefixBytes(), c.TrailerBytes(), c.MaxChars())
	}
}

func TestNewRejectsBadKey(t *testing.T) {
	if _, err := New([]byte("short"), crypt.NewSeededNonceSource(1)); err == nil {
		t.Error("New accepted short key")
	}
}

func TestEncryptDecryptAll(t *testing.T) {
	c := newCodec(t, 2)
	text := "the magic words are squeamish ossifrage"
	chunks := chunksOf(text, 8)
	prefix, blocks, trailer, err := c.EncryptAll(chunks)
	if err != nil {
		t.Fatalf("EncryptAll: %v", err)
	}
	if trailer != nil {
		t.Error("rECB produced a trailer")
	}
	records := flatRecords(blocks)
	c2 := newCodec(t, 99)
	got, err := c2.DecryptAll(prefix, records, nil)
	if err != nil {
		t.Fatalf("DecryptAll: %v", err)
	}
	var sb strings.Builder
	for _, b := range got {
		sb.Write(b.Chars)
	}
	if sb.String() != text {
		t.Errorf("round trip = %q", sb.String())
	}
}

func TestPaperStructure(t *testing.T) {
	// §V-B: block i decrypts using only the r0 record and that block —
	// verify a single block decrypts correctly in isolation.
	c := newCodec(t, 3)
	chunks := chunksOf("independent blocks here!", 8)
	prefix, blocks, _, err := c.EncryptAll(chunks)
	if err != nil {
		t.Fatalf("EncryptAll: %v", err)
	}
	c2 := newCodec(t, 77)
	got, err := c2.DecryptAll(prefix, blocks[1].Record, nil)
	if err != nil {
		t.Fatalf("single-block DecryptAll: %v", err)
	}
	if string(got[0].Chars) != "t block"+"s"[0:1] {
		// chunks of 8: "independ", "ent bloc", "ks here!" — block 1 = "ent bloc"
		if string(got[0].Chars) != "ent bloc" {
			t.Errorf("isolated block = %q, want %q", got[0].Chars, "ent bloc")
		}
	}
}

func TestSubstitutionAttackUndetected(t *testing.T) {
	// The paper concedes (§V-A, §VI-A) that the privacy-only scheme cannot
	// withstand active attacks such as replicating or swapping ciphertext
	// blocks. Demonstrate: a server that swaps two records produces a
	// document that decrypts *successfully* to altered content.
	c := newCodec(t, 4)
	chunks := chunksOf("AAAABBBBCCCCDDDD", 4)
	prefix, blocks, _, err := c.EncryptAll(chunks)
	if err != nil {
		t.Fatalf("EncryptAll: %v", err)
	}
	records := [][]byte{blocks[0].Record, blocks[1].Record, blocks[2].Record, blocks[3].Record}
	records[1], records[2] = records[2], records[1] // malicious swap
	c2 := newCodec(t, 88)
	got, err := c2.DecryptAll(prefix, bytes.Join(records, nil), nil)
	if err != nil {
		t.Fatalf("swap detected, but rECB should not detect it: %v", err)
	}
	var sb strings.Builder
	for _, b := range got {
		sb.Write(b.Chars)
	}
	if sb.String() != "AAAACCCCBBBBDDDD" {
		t.Errorf("swapped decryption = %q, want the swapped plaintext", sb.String())
	}
}

func TestBitFlipIsGarbledNotDetected(t *testing.T) {
	// Flipping ciphertext bits garbles the block (AES avalanche) but rECB
	// has no way to reject it unless the structural padding check happens
	// to fail. Either outcome (error or garbage) is acceptable; silent
	// *correct* decryption is not.
	c := newCodec(t, 5)
	chunks := chunksOf("tamperme", 8)
	prefix, blocks, _, err := c.EncryptAll(chunks)
	if err != nil {
		t.Fatalf("EncryptAll: %v", err)
	}
	rec := append([]byte(nil), blocks[0].Record...)
	rec[5] ^= 0x01
	c2 := newCodec(t, 66)
	got, err := c2.DecryptAll(prefix, rec, nil)
	if err == nil && string(got[0].Chars) == "tamperme" {
		t.Error("bit flip decrypted to the original plaintext")
	}
}

func TestDecryptAllRejectsStructuralDamage(t *testing.T) {
	c := newCodec(t, 6)
	prefix, blocks, _, err := c.EncryptAll(chunksOf("structur", 8))
	if err != nil {
		t.Fatalf("EncryptAll: %v", err)
	}
	rec := blocks[0].Record

	tests := []struct {
		name    string
		prefix  []byte
		records []byte
		trailer []byte
	}{
		{"short prefix", prefix[:10], rec, nil},
		{"unexpected trailer", prefix, rec, []byte{1, 2, 3}},
		{"part of a record", prefix, rec[:5], nil},
		{"record and a part", prefix, append(bytes.Clone(rec), rec[:5]...), nil},
		{"zero count", prefix, append([]byte{0}, rec[1:]...), nil},
		{"oversized count", prefix, append([]byte{9}, rec[1:]...), nil},
	}
	for _, tc := range tests {
		c2 := newCodec(t, 55)
		if _, err := c2.DecryptAll(tc.prefix, tc.records, tc.trailer); !errors.Is(err, blockdoc.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestSpliceIndependence(t *testing.T) {
	// rECB splices must never rewrite neighbors, prefix, or trailer.
	c := newCodec(t, 7)
	_, blocks, _, err := c.EncryptAll(chunksOf("neighbor independent", 4))
	if err != nil {
		t.Fatalf("EncryptAll: %v", err)
	}
	added, leftRec, newPrefix, newTrailer, err := c.Splice(blocks[0], blocks[1:2], [][]byte{[]byte("NEW!")}, blocks[2])
	if err != nil {
		t.Fatalf("Splice: %v", err)
	}
	if leftRec != nil || newPrefix != nil || newTrailer != nil {
		t.Error("rECB splice touched neighbor/prefix/trailer")
	}
	if len(added) != 1 || string(added[0].Chars) != "NEW!" {
		t.Errorf("added = %v", added)
	}
}

func TestSpliceRejectsOversizedChunk(t *testing.T) {
	c := newCodec(t, 8)
	if _, _, _, err := c.EncryptAll([][]byte{[]byte("123456789")}); err == nil {
		t.Error("EncryptAll accepted 9-char chunk")
	}
	if _, _, _, _, err := c.Splice(nil, nil, [][]byte{[]byte("123456789")}, nil); err == nil {
		t.Error("Splice accepted 9-char chunk")
	}
	if _, _, _, _, err := c.Splice(nil, nil, [][]byte{{}}, nil); err == nil {
		t.Error("Splice accepted empty chunk")
	}
}

func TestFreshNoncesPerEncryption(t *testing.T) {
	c := newCodec(t, 9)
	_, b1, _, err := c.EncryptAll(chunksOf("samedata", 8))
	if err != nil {
		t.Fatalf("EncryptAll: %v", err)
	}
	added, _, _, _, err := c.Splice(nil, nil, [][]byte{[]byte("samedata")}, nil)
	if err != nil {
		t.Fatalf("Splice: %v", err)
	}
	if string(b1[0].Record) == string(added[0].Record) {
		t.Error("same plaintext encrypted to identical records")
	}
}

func TestWrongKeyFailsOrGarbles(t *testing.T) {
	c := newCodec(t, 10)
	prefix, blocks, _, err := c.EncryptAll(chunksOf("keymatters", 8))
	if err != nil {
		t.Fatalf("EncryptAll: %v", err)
	}
	otherKey := make([]byte, crypt.KeySize)
	for i := range otherKey {
		otherKey[i] = byte(200 - i)
	}
	c2, err := New(otherKey, crypt.NewSeededNonceSource(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	records := flatRecords(blocks)
	got, err := c2.DecryptAll(prefix, records, nil)
	if err == nil {
		var sb strings.Builder
		for _, b := range got {
			sb.Write(b.Chars)
		}
		if sb.String() == "keymatters" {
			t.Error("wrong key recovered the plaintext")
		}
	}
}
