// Top-level benchmarks: one testing.B benchmark per table/figure of the
// paper's evaluation (§VII). These are the micro-level counterparts of the
// cmd/privedit-bench experiment harness — run `go test -bench=. -benchmem`
// here, and `privedit-bench -exp all` for the paper-style tables.
package privedit_test

import (
	"fmt"
	"testing"

	"privedit/internal/baseline"
	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/delta"
	"privedit/internal/workload"
)

func newEditor(b *testing.B, scheme core.Scheme, blockChars int, seed uint64) *core.Editor {
	b.Helper()
	ed, err := core.NewEditor("bench", core.Options{
		Scheme:     scheme,
		BlockChars: blockChars,
		Nonces:     crypt.NewSeededNonceSource(seed),
	})
	if err != nil {
		b.Fatal(err)
	}
	return ed
}

// resizeGuard re-seeds an editor's document when random-walk drift moves
// it too far from the intended size, keeping per-op numbers comparable
// across iterations. The reset happens off the clock.
func resizeGuard(b *testing.B, ed *core.Editor, gen *workload.Gen, base int) {
	if l := ed.Len(); l < base/2 || l > base*2 {
		b.StopTimer()
		if _, err := ed.Encrypt(gen.Document(base)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

var schemes = []core.Scheme{core.ConfidentialityOnly, core.ConfidentialityIntegrity}

// BenchmarkFig4Encryption measures whole-document encryption (Figure 4,
// row "encryption (D)"), per scheme, on a mid-sized document.
func BenchmarkFig4Encryption(b *testing.B) {
	doc := workload.NewGen(1).Document(5000)
	for _, scheme := range schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			ed := newEditor(b, scheme, 1, 11)
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ed.Encrypt(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Decryption measures opening a container (Figure 4, row
// "decryption (D')").
func BenchmarkFig4Decryption(b *testing.B) {
	doc := workload.NewGen(2).Document(5000)
	for _, scheme := range schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			ed := newEditor(b, scheme, 1, 12)
			// Two encryptions of the document carry different rings (r0),
			// so each Reload of the other one opens the whole container.
			var transports [2]string
			for i := range transports {
				t, err := ed.Encrypt(doc)
				if err != nil {
					b.Fatal(err)
				}
				transports[i] = t
			}
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ed.Reload(transports[i%2]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Incremental measures transform_delta on a single sentence
// edit in a 10000-char document (Figure 4, row "incremental encryption").
func BenchmarkFig4Incremental(b *testing.B) {
	for _, scheme := range schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			gen := workload.NewGen(3)
			ed := newEditor(b, scheme, 1, 13)
			if _, err := ed.Encrypt(gen.Document(10000)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resizeGuard(b, ed, gen, 10000)
				sp := gen.Edit(ed.Plaintext(), workload.SentenceReplace)
				if _, err := ed.Splice(sp.Pos, sp.Del, sp.Ins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig5MacroSave measures the full mediation cost of one
// incremental save — delta parse, transform, ciphertext delta emit — for
// the small and large files of Figure 5.
func BenchmarkFig5MacroSave(b *testing.B) {
	for _, size := range []int{500, 10000} {
		for _, scheme := range schemes {
			b.Run(fmt.Sprintf("%s/size=%d", scheme, size), func(b *testing.B) {
				gen := workload.NewGen(int64(size))
				ed := newEditor(b, scheme, 1, uint64(size)+14)
				if _, err := ed.Encrypt(gen.Document(size)); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resizeGuard(b, ed, gen, size)
					sp := gen.Edit(ed.Plaintext(), workload.InsertsAndDeletes)
					pd := sp.Delta()
					wire := pd.String()
					parsed, err := delta.Parse(wire)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := ed.TransformDeltaOps(parsed); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6BlockSize sweeps the block size for whole-document
// encryption and incremental updates (Figure 6a and 6b).
func BenchmarkFig6BlockSize(b *testing.B) {
	doc := workload.NewGen(6).Document(10000)
	for _, blockChars := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("enc/b=%d", blockChars), func(b *testing.B) {
			ed := newEditor(b, core.ConfidentialityOnly, blockChars, uint64(blockChars)+60)
			b.SetBytes(int64(len(doc)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ed.Encrypt(doc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("inc/b=%d", blockChars), func(b *testing.B) {
			gen := workload.NewGen(int64(blockChars) + 66)
			ed := newEditor(b, core.ConfidentialityOnly, blockChars, uint64(blockChars)+61)
			if _, err := ed.Encrypt(doc); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resizeGuard(b, ed, gen, 10000)
				sp := gen.Edit(ed.Plaintext(), workload.InsertsAndDeletes)
				if sp.Del == 0 && sp.Ins == "" {
					continue
				}
				if _, err := ed.Splice(sp.Pos, sp.Del, sp.Ins); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7Blowup reports the ciphertext blowup per block size as a
// benchmark metric (Figure 7); the timed operation is container
// serialization.
func BenchmarkFig7Blowup(b *testing.B) {
	doc := workload.NewGen(7).Document(10000)
	for _, blockChars := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("b=%d", blockChars), func(b *testing.B) {
			ed := newEditor(b, core.ConfidentialityOnly, blockChars, uint64(blockChars)+70)
			if _, err := ed.Encrypt(doc); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(ed.Stats().Blowup, "blowup")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if len(ed.Transport()) == 0 {
					b.Fatal("empty transport")
				}
			}
		})
	}
}

// BenchmarkFig8MultiCharSave measures the incremental save with the
// paper's preferred 8-character blocks (Figure 8).
func BenchmarkFig8MultiCharSave(b *testing.B) {
	gen := workload.NewGen(8)
	ed := newEditor(b, core.ConfidentialityOnly, 8, 80)
	if _, err := ed.Encrypt(gen.Document(10000)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resizeGuard(b, ed, gen, 10000)
		sp := gen.Edit(ed.Plaintext(), workload.InsertsAndDeletes)
		if sp.Del == 0 && sp.Ins == "" {
			continue
		}
		if _, err := ed.Splice(sp.Pos, sp.Del, sp.Ins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBaselines contrasts the incremental editor with the
// CoClo full-reencryption baseline and the naive realign strawman on a
// 10000-char document (the DESIGN.md ablation).
func BenchmarkAblationBaselines(b *testing.B) {
	doc := workload.NewGen(9).Document(10000)
	opts := core.Options{
		Scheme:     core.ConfidentialityOnly,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(90),
	}

	b.Run("incremental", func(b *testing.B) {
		gen := workload.NewGen(91)
		ed := newEditor(b, core.ConfidentialityOnly, 8, 91)
		if _, err := ed.Encrypt(doc); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resizeGuard(b, ed, gen, 10000)
			sp := gen.Edit(ed.Plaintext(), workload.SentenceReplace)
			if _, err := ed.Splice(sp.Pos, sp.Del, sp.Ins); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coclo-full", func(b *testing.B) {
		gen := workload.NewGen(92)
		full, err := baseline.NewFullReencrypt("bench", opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := full.SetText(doc); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if l := len(full.Text()); l < 5000 || l > 20000 {
				b.StopTimer()
				if _, err := full.SetText(doc); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			sp := gen.Edit(full.Text(), workload.SentenceReplace)
			if _, err := full.Splice(sp.Pos, sp.Del, sp.Ins); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-realign", func(b *testing.B) {
		gen := workload.NewGen(93)
		naive, err := baseline.NewNaiveRealign("bench", opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := naive.SetText(doc); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if l := len(naive.Text()); l < 5000 || l > 20000 {
				b.StopTimer()
				if _, err := naive.SetText(doc); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			sp := gen.Edit(naive.Text(), workload.SentenceReplace)
			if _, err := naive.Splice(sp.Pos, sp.Del, sp.Ins); err != nil {
				b.Fatal(err)
			}
		}
	})
}
