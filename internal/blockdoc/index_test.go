package blockdoc_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"privedit/internal/blockdoc"
	"privedit/internal/delta"
)

// indexed reports whether d has built its block skip list. The list has no
// behaviour of its own to observe from outside, so this reads the field.
func indexed(d *blockdoc.Document) bool {
	return !reflect.ValueOf(d).Elem().FieldByName("list").IsNil()
}

// TestIndexBuiltOnFirstEdit pins the deferred skip list. A whole-container
// load only reads, so LoadTransport, Plaintext, Transport and the size
// accessors must leave the index unbuilt. The first TransformDelta builds
// it and must emit byte for byte the ciphertext delta of a document
// indexed at load (by a no-op edit), under the same nonces; a Reload's
// window walk builds it too. Both codecs, b = 1 and 8.
func TestIndexBuiltOnFirstEdit(t *testing.T) {
	for _, scheme := range []string{"rECB", "RPC"} {
		for _, b := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/b=%d", scheme, b), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(7 * b)))
				text := goldenText(rng, 300*b+5)
				src, _ := reloadDoc(t, scheme, b, 1)
				if err := src.LoadPlaintext(text); err != nil {
					t.Fatal(err)
				}
				container := src.Transport()

				lazy, ln := reloadDoc(t, scheme, b, 2)
				eager, en := reloadDoc(t, scheme, b, 3)
				if err := lazy.LoadTransport(container); err != nil {
					t.Fatal(err)
				}
				if err := eager.LoadTransport(container); err != nil {
					t.Fatal(err)
				}
				if _, err := eager.TransformDelta(nil); err != nil {
					t.Fatal(err)
				}
				if !indexed(eager) {
					t.Fatal("a no-op edit did not build the index")
				}
				if lazy.Plaintext() != text || lazy.Transport() != container {
					t.Fatal("lazily loaded document differs from its container")
				}
				if lazy.Len() != eager.Len() || lazy.Blocks() != eager.Blocks() || lazy.TransportLen() != len(container) || lazy.Stats() != eager.Stats() {
					t.Fatal("lazily loaded document's sizes differ from an indexed one's")
				}
				if indexed(lazy) {
					t.Fatal("reading a loaded document built its index")
				}

				hunks := delta.Delta{
					delta.RetainOp(b + 1), delta.InsertOp("head"),
					delta.RetainOp(len(text) / 3), delta.DeleteOp(2 * b), delta.InsertOp("middle"),
					delta.RetainOp(len(text) / 3), delta.DeleteOp(b + 3),
				}
				ln.reset(9)
				en.reset(9)
				cl, err := lazy.TransformDelta(hunks)
				if err != nil {
					t.Fatal(err)
				}
				ce, err := eager.TransformDelta(hunks)
				if err != nil {
					t.Fatal(err)
				}
				if !indexed(lazy) {
					t.Fatal("the first edit did not build the index")
				}
				if cl.String() != ce.String() || lazy.Transport() != eager.Transport() {
					t.Fatal("the first edit's ciphertext differs from an indexed-at-load document's")
				}
				if err := sameRing(lazy, eager, ln, en, 10); err != nil {
					t.Fatal(err)
				}

				if _, err := src.Splice(len(text)/2, 1, "remote"); err != nil {
					t.Fatal(err)
				}
				reloaded, _ := reloadDoc(t, scheme, b, 4)
				if err := reloaded.LoadTransport(container); err != nil {
					t.Fatal(err)
				}
				if _, err := reloaded.Reload(src.Transport()); err != nil {
					t.Fatal(err)
				}
				if !indexed(reloaded) || reloaded.Plaintext() != src.Plaintext() {
					t.Fatal("Reload of an edit did not walk an index to the edited text")
				}
			})
		}
	}
}
