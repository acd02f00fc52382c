package blockdoc_test

import (
	"strings"
	"testing"

	"privedit/internal/blockdoc"
	"privedit/internal/crypt"
	"privedit/internal/delta"
	"privedit/internal/recb"
	"privedit/internal/rpcmode"
)

func benchDoc(b *testing.B, codec blockdoc.Codec, chars int) *blockdoc.Document {
	b.Helper()
	var salt [blockdoc.SaltLen]byte
	var kc [blockdoc.KeyCheckLen]byte
	copy(salt[:], "bench-salt-bench")
	doc, err := blockdoc.New(codec, 4, salt, kc)
	if err != nil {
		b.Fatal(err)
	}
	if err := doc.LoadPlaintext(strings.Repeat("x", chars)); err != nil {
		b.Fatal(err)
	}
	return doc
}

func benchCodec(b *testing.B, name string) blockdoc.Codec {
	b.Helper()
	key := make([]byte, 16)
	nonces := crypt.NewSeededNonceSource(2011)
	switch name {
	case "recb":
		c, err := recb.New(key, nonces)
		if err != nil {
			b.Fatal(err)
		}
		return c
	case "rpc":
		c, err := rpcmode.New(key, nonces)
		if err != nil {
			b.Fatal(err)
		}
		return c
	default:
		b.Fatalf("unknown codec %q", name)
		return nil
	}
}

// BenchmarkSpliceSequential measures the IncE hot path: single-character
// insertions marching through the document, the pattern a typist produces.
func BenchmarkSpliceSequential(b *testing.B) {
	for _, codec := range []string{"recb", "rpc"} {
		b.Run(codec, func(b *testing.B) {
			doc := benchDoc(b, benchCodec(b, codec), 8192)
			b.ReportAllocs()
			b.ResetTimer()
			pos := 0
			for i := 0; i < b.N; i++ {
				if _, err := doc.Splice(pos, 1, "y"); err != nil {
					b.Fatal(err)
				}
				pos += 7
				if pos+1 >= doc.Len() {
					pos = 0
				}
			}
		})
	}
}

// BenchmarkTransformDeltaBurst measures a burst of adjacent single-character
// edits — 16 overtyped characters — arriving as one delta, the shape the
// client's autosave produces and TransformDelta coalesces into one splice
// ("coalesce"), against the same keystrokes sent one Splice call each
// ("split").
func BenchmarkTransformDeltaBurst(b *testing.B) {
	const keys = 16
	burst := func(pos int) delta.Delta {
		d := delta.Delta{delta.RetainOp(pos)}
		for i := 0; i < keys; i++ {
			d = append(d, delta.InsertOp("z"), delta.DeleteOp(1))
		}
		return d
	}
	split := func(doc *blockdoc.Document, pos int) error {
		for i := 0; i < keys; i++ {
			if _, err := doc.Splice(pos, 0, "z"); err != nil {
				return err
			}
			pos++
			if _, err := doc.Splice(pos, 1, ""); err != nil {
				return err
			}
		}
		return nil
	}
	for _, mode := range []struct {
		name string
		edit func(doc *blockdoc.Document, pos int) error
	}{
		{"coalesce", func(doc *blockdoc.Document, pos int) error {
			_, err := doc.TransformDelta(burst(pos))
			return err
		}},
		{"split", split},
	} {
		b.Run(mode.name, func(b *testing.B) {
			doc := benchDoc(b, benchCodec(b, "rpc"), 8192)
			b.ReportAllocs()
			b.ResetTimer()
			pos := 0
			for i := 0; i < b.N; i++ {
				if err := mode.edit(doc, pos); err != nil {
					b.Fatal(err)
				}
				pos = (pos + 64) % (doc.Len() - 32)
			}
		})
	}
}
