package core

import (
	"testing"

	"privedit/internal/blockdoc"
	"privedit/internal/crypt"
)

// BenchmarkColdOpen measures a cold open, the scheme's Dec: OpenWithKey
// and Plaintext of a 50,000-character RPC container at b = 8, the document
// shape of editbench's open workload. The key is derived once, outside the
// loop, as the extension caches it per document. Run with -benchmem.
func BenchmarkColdOpen(b *testing.B) {
	text := largeTestDoc()[:50_000]
	ed, err := NewEditor("cold-open", testOpts(ConfidentialityIntegrity, 7))
	if err != nil {
		b.Fatal(err)
	}
	transport, err := ed.Encrypt(text)
	if err != nil {
		b.Fatal(err)
	}
	h, err := blockdoc.PeekHeader(transport)
	if err != nil {
		b.Fatal(err)
	}
	key := crypt.DeriveDocumentKey("cold-open", h.Salt[:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opened, err := OpenWithKey(key, transport, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if opened.Plaintext() != text {
			b.Fatal("opened plaintext differs from the encrypted text")
		}
	}
}
