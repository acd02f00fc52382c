package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"privedit/internal/crypt"
)

// largeTestDoc is 120k characters: 120,000 blocks at b = 1 and 15,000 at
// b = 8, both well past the 2,048-block point where a single-block loop
// and a whole-document batch could differ in nonce order or arena reuse.
func largeTestDoc() string {
	var b strings.Builder
	for b.Len() < 120_000 {
		b.WriteString("the quick brown fox jumps over the lazy dog 0123456789 ")
	}
	return b.String()
}

// TestEncryptLargeDocumentGolden pins the whole-document Encrypt of a large
// document byte for byte: with seeded nonces, the SHA-256 of each container
// is fixed. The digests were recorded with the per-block serial kernel, so
// they also hold the single batched kernel to serial nonce order.
func TestEncryptLargeDocumentGolden(t *testing.T) {
	doc := largeTestDoc()
	cases := []struct {
		scheme Scheme
		b      int
		len    int
		want   string
	}{
		{ConfidentialityOnly, 1, 3360356, "e9c119e241562b704595baa1ad4e3424397a3a98f6ac373c7984a171fee5c0b1"},
		{ConfidentialityOnly, 8, 420132, "69932f5ac12fec20c83f96fa581e9f752cf913aecac7b8e97a3afd1e03d2bc09"},
		{ConfidentialityIntegrity, 1, 6240673, "4cf1575ae309cdcc5db2584934be02cc502c8bf96071fa8d7c3c185cac897a17"},
		{ConfidentialityIntegrity, 8, 780257, "6dd916959e4e53fa21c6df91d798d6ca50c655c7dd7915fe947e783793a628b8"},
	}
	for _, tc := range cases {
		ed, err := NewEditor("pw", Options{
			Scheme: tc.scheme, BlockChars: tc.b, Nonces: crypt.NewSeededNonceSource(42),
		})
		if err != nil {
			t.Fatalf("NewEditor: %v", err)
		}
		ct, err := ed.Encrypt(doc)
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		sum := sha256.Sum256([]byte(ct))
		if got := hex.EncodeToString(sum[:]); len(ct) != tc.len || got != tc.want {
			t.Errorf("scheme=%v b=%d: container len %d sha256 %s, want len %d sha256 %s",
				tc.scheme, tc.b, len(ct), got, tc.len, tc.want)
		}
	}
}

// TestDecryptLargeDocument decrypts and reopens a large container of each
// scheme; the reopened editor must hold the plaintext and reproduce the
// container byte for byte.
func TestDecryptLargeDocument(t *testing.T) {
	doc := largeTestDoc()
	for _, scheme := range []Scheme{ConfidentialityOnly, ConfidentialityIntegrity} {
		ed, err := NewEditor("pw", Options{
			Scheme: scheme, BlockChars: 4, Nonces: crypt.NewSeededNonceSource(7),
		})
		if err != nil {
			t.Fatalf("NewEditor: %v", err)
		}
		ct, err := ed.Encrypt(doc)
		if err != nil {
			t.Fatalf("Encrypt: %v", err)
		}
		pt, err := DecryptWith("pw", ct, Options{})
		if err != nil {
			t.Fatalf("DecryptWith: %v", err)
		}
		if pt != doc {
			t.Errorf("scheme=%v: DecryptWith returned the wrong plaintext", scheme)
		}
		opened, err := OpenWith("pw", ct, Options{})
		if err != nil {
			t.Fatalf("OpenWith: %v", err)
		}
		if opened.Plaintext() != doc {
			t.Errorf("scheme=%v: OpenWith produced the wrong plaintext", scheme)
		}
		if opened.Transport() != ct {
			t.Errorf("scheme=%v: reopened transport differs from the container", scheme)
		}
	}
}
