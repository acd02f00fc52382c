package rpcmode

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
		key[i] = byte(i * 7)
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

// encryptDoc is a helper returning prefix, records, trailer for text.
func encryptDoc(t *testing.T, c *Codec, text string, b int) ([]byte, [][]byte, []byte) {
	t.Helper()
	prefix, blocks, trailer, err := c.EncryptAll(chunksOf(text, b))
	if err != nil {
		t.Fatalf("EncryptAll: %v", err)
	}
	records := make([][]byte, len(blocks))
	for i, blk := range blocks {
		records[i] = blk.Record
	}
	return prefix, records, trailer
}

// decryptDoc opens the records laid back to back, as blockdoc decodes a
// container body.
func decryptDoc(c *Codec, prefix []byte, records [][]byte, trailer []byte) (string, error) {
	blocks, err := c.DecryptAll(prefix, bytes.Join(records, nil), trailer)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, b := range blocks {
		sb.Write(b.Chars)
	}
	return sb.String(), nil
}

func TestCodecIdentity(t *testing.T) {
	c := newCodec(t, 1)
	if c.Name() != "RPC" || c.ID() != SchemeID {
		t.Errorf("identity = %s/%d", c.Name(), c.ID())
	}
	if c.RecordBytes() != 32 || c.PrefixBytes() != 32 || c.TrailerBytes() != 32 || c.MaxChars() != 8 {
		t.Errorf("geometry = %d/%d/%d/%d", c.RecordBytes(), c.PrefixBytes(), c.TrailerBytes(), c.MaxChars())
	}
}

func TestNewRejectsBadKey(t *testing.T) {
	if _, err := New(make([]byte, 8), crypt.NewSeededNonceSource(1)); err == nil {
		t.Error("New accepted 8-byte key")
	}
}

func TestRoundTrip(t *testing.T) {
	c := newCodec(t, 2)
	text := "integrity protected content with several blocks"
	prefix, records, trailer := encryptDoc(t, c, text, 8)
	got, err := decryptDoc(newCodec(t, 99), prefix, records, trailer)
	if err != nil {
		t.Fatalf("DecryptAll: %v", err)
	}
	if got != text {
		t.Errorf("round trip = %q", got)
	}
}

func TestEmptyDocumentRing(t *testing.T) {
	c := newCodec(t, 3)
	prefix, blocks, trailer, err := c.EncryptAll(nil)
	if err != nil {
		t.Fatalf("EncryptAll(nil): %v", err)
	}
	if len(blocks) != 0 {
		t.Fatalf("empty doc produced %d blocks", len(blocks))
	}
	got, err := decryptDoc(newCodec(t, 98), prefix, nil, trailer)
	if err != nil {
		t.Fatalf("empty ring rejected: %v", err)
	}
	if got != "" {
		t.Errorf("empty doc decrypted to %q", got)
	}
}

// TestTamperMatrix verifies every active attack the paper's integrity mode
// must detect (§VI-A: "any modification will be detected").
func TestTamperMatrix(t *testing.T) {
	text := "AAAABBBBCCCCDDDDEEEEFFFF" // 6 blocks of 4
	tamper := []struct {
		name   string
		mutate func(prefix []byte, records [][]byte, trailer []byte) ([]byte, [][]byte, []byte)
	}{
		{"bit flip in record", func(p []byte, r [][]byte, tr []byte) ([]byte, [][]byte, []byte) {
			r2 := append([][]byte(nil), r...)
			rec := append([]byte(nil), r2[2]...)
			rec[7] ^= 0x80
			r2[2] = rec
			return p, r2, tr
		}},
		{"swap two records", func(p []byte, r [][]byte, tr []byte) ([]byte, [][]byte, []byte) {
			r2 := append([][]byte(nil), r...)
			r2[1], r2[3] = r2[3], r2[1]
			return p, r2, tr
		}},
		{"replay a record", func(p []byte, r [][]byte, tr []byte) ([]byte, [][]byte, []byte) {
			r2 := append([][]byte(nil), r...)
			r2[4] = r2[1]
			return p, r2, tr
		}},
		{"duplicate a record", func(p []byte, r [][]byte, tr []byte) ([]byte, [][]byte, []byte) {
			r2 := append(append([][]byte(nil), r...), r[len(r)-1])
			return p, r2, tr
		}},
		{"truncate last record", func(p []byte, r [][]byte, tr []byte) ([]byte, [][]byte, []byte) {
			return p, r[:len(r)-1], tr
		}},
		{"drop middle record", func(p []byte, r [][]byte, tr []byte) ([]byte, [][]byte, []byte) {
			r2 := append([][]byte(nil), r[:2]...)
			r2 = append(r2, r[3:]...)
			return p, r2, tr
		}},
		{"bit flip in prefix", func(p []byte, r [][]byte, tr []byte) ([]byte, [][]byte, []byte) {
			p2 := append([]byte(nil), p...)
			p2[0] ^= 0x01
			return p2, r, tr
		}},
		{"bit flip in trailer", func(p []byte, r [][]byte, tr []byte) ([]byte, [][]byte, []byte) {
			t2 := append([]byte(nil), tr...)
			t2[31] ^= 0x10
			return p, r, t2
		}},
		{"missing trailer", func(p []byte, r [][]byte, tr []byte) ([]byte, [][]byte, []byte) {
			return p, r, nil
		}},
		{"reverse all records", func(p []byte, r [][]byte, tr []byte) ([]byte, [][]byte, []byte) {
			r2 := make([][]byte, len(r))
			for i := range r {
				r2[i] = r[len(r)-1-i]
			}
			return p, r2, tr
		}},
	}
	for _, tc := range tamper {
		t.Run(tc.name, func(t *testing.T) {
			c := newCodec(t, 4)
			prefix, records, trailer := encryptDoc(t, c, text, 4)
			p2, r2, t2 := tc.mutate(prefix, records, trailer)
			if _, err := decryptDoc(newCodec(t, 44), p2, r2, t2); !errors.Is(err, blockdoc.ErrIntegrity) {
				t.Errorf("tampering %q = %v, want ErrIntegrity", tc.name, err)
			}
		})
	}
}

func TestCrossDocumentSpliceDetected(t *testing.T) {
	// Records from another document (same key!) cannot be spliced in.
	cA := newCodec(t, 5)
	prefixA, recordsA, trailerA := encryptDoc(t, cA, "document alpha contents", 4)
	cB := newCodec(t, 6)
	_, recordsB, _ := encryptDoc(t, cB, "document beta contents!", 4)

	mixed := append([][]byte(nil), recordsA...)
	mixed[2] = recordsB[2]
	if _, err := decryptDoc(newCodec(t, 55), prefixA, mixed, trailerA); !errors.Is(err, blockdoc.ErrIntegrity) {
		t.Errorf("cross-document splice = %v, want ErrIntegrity", err)
	}
}

func TestLengthForgeryDetected(t *testing.T) {
	// The Wang et al. amendment: the trailer binds the document length, so
	// even a "consistent-looking" truncation to a prefix of the ring fails.
	c := newCodec(t, 7)
	prefix, records, trailer := encryptDoc(t, c, "0123456789abcdef", 8)
	// Remove the last block AND keep the old trailer: chain breaks.
	if _, err := decryptDoc(newCodec(t, 66), prefix, records[:1], trailer); !errors.Is(err, blockdoc.ErrIntegrity) {
		t.Errorf("truncation = %v, want ErrIntegrity", err)
	}
}

func TestSpliceMaintainsAggregates(t *testing.T) {
	// After a splice, re-serializing with the codec's trailer must verify.
	c := newCodec(t, 8)
	prefix, blocks, _, err := c.EncryptAll(chunksOf("AAAABBBBCCCCDDDD", 4))
	if err != nil {
		t.Fatalf("EncryptAll: %v", err)
	}
	// Replace block 2 ("CCCC") with two new blocks, left neighbor block 1.
	added, newLeft, newPrefix, newTrailer, err := c.Splice(blocks[1], blocks[2:3], [][]byte{[]byte("XXXX"), []byte("YY")}, blocks[3])
	if err != nil {
		t.Fatalf("Splice: %v", err)
	}
	if newLeft == nil {
		t.Fatal("RPC splice did not rewrite the left neighbor")
	}
	if newPrefix != nil {
		t.Fatal("interior splice rewrote the prefix")
	}
	if newTrailer == nil {
		t.Fatal("RPC splice did not refresh the trailer")
	}
	records := [][]byte{blocks[0].Record, newLeft, added[0].Record, added[1].Record, blocks[3].Record}
	got, err := decryptDoc(newCodec(t, 77), prefix, records, newTrailer)
	if err != nil {
		t.Fatalf("post-splice verification: %v", err)
	}
	if got != "AAAABBBBXXXXYYDDDD" {
		t.Errorf("post-splice plaintext = %q", got)
	}
}

func TestSpliceAtHeadRewritesPrefix(t *testing.T) {
	c := newCodec(t, 9)
	_, blocks, _, err := c.EncryptAll(chunksOf("AAAABBBB", 4))
	if err != nil {
		t.Fatalf("EncryptAll: %v", err)
	}
	added, newLeft, newPrefix, newTrailer, err := c.Splice(nil, blocks[0:1], [][]byte{[]byte("ZZZZ")}, blocks[1])
	if err != nil {
		t.Fatalf("Splice: %v", err)
	}
	if newLeft != nil {
		t.Error("head splice returned a left record")
	}
	if newPrefix == nil {
		t.Fatal("head splice did not rewrite the start block")
	}
	records := [][]byte{added[0].Record, blocks[1].Record}
	got, err := decryptDoc(newCodec(t, 88), newPrefix, records, newTrailer)
	if err != nil {
		t.Fatalf("post-splice verification: %v", err)
	}
	if got != "ZZZZBBBB" {
		t.Errorf("post-splice plaintext = %q", got)
	}
}

func TestDeleteAllThenVerify(t *testing.T) {
	c := newCodec(t, 10)
	_, blocks, _, err := c.EncryptAll(chunksOf("WIPEOUT!", 4))
	if err != nil {
		t.Fatalf("EncryptAll: %v", err)
	}
	_, _, newPrefix, newTrailer, err := c.Splice(nil, blocks, nil, nil)
	if err != nil {
		t.Fatalf("Splice: %v", err)
	}
	got, err := decryptDoc(newCodec(t, 11), newPrefix, nil, newTrailer)
	if err != nil {
		t.Fatalf("empty-after-delete verification: %v", err)
	}
	if got != "" {
		t.Errorf("plaintext = %q, want empty", got)
	}
}

func TestMetaPacking(t *testing.T) {
	for _, typ := range []byte{typeStart, typeData} {
		for count := 0; count <= 8; count++ {
			m := meta(typ, count)
			gotTyp, gotCount, rest := unpackMeta(m)
			if gotTyp != typ || gotCount != count || rest != 0 {
				t.Errorf("meta(%d,%d) unpacked to (%d,%d,%d)", typ, count, gotTyp, gotCount, rest)
			}
		}
	}
}

func TestWrongKeyRejected(t *testing.T) {
	c := newCodec(t, 12)
	prefix, records, trailer := encryptDoc(t, c, "locked with key A", 8)
	otherKey := make([]byte, crypt.KeySize)
	for i := range otherKey {
		otherKey[i] = byte(100 + i)
	}
	c2, err := New(otherKey, crypt.NewSeededNonceSource(1))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := decryptDoc(c2, prefix, records, trailer); err == nil {
		t.Error("wrong key accepted")
	}
}
