package blockdoc_test

import (
	"math/rand"
	"testing"

	"privedit/internal/blockdoc"
	"privedit/internal/delta"
)

// FuzzTransformDelta drives the full edit pipeline from fuzz-provided
// documents (including multibyte and invalid UTF-8) and op tapes: each
// byte triple of the tape is one plaintext operation, so the delta arrives
// uncoalesced and TransformDelta coalesces it. It asserts, for both
// schemes, that
//
//  1. the in-memory plaintext equals the delta applied to the old one,
//  2. the emitted ciphertext delta, applied server-side to the old
//     transport string, reproduces the document's new transport exactly,
//  3. the document still passes its self check.
func FuzzTransformDelta(f *testing.F) {
	f.Add("hello block world", []byte{0, 3, 2, 1, 9, 4})
	f.Add("日本語テキスト with ascii", []byte{0, 0, 1, 1, 2, 0, 2, 5, 3})
	f.Add("𝛼𝛽\xff\xfe mixed", []byte{2, 1, 1, 0, 4, 2})
	f.Add("", []byte{0, 0, 9})
	f.Fuzz(func(t *testing.T, text string, tape []byte) {
		if len(text) > 2000 || len(tape) > 60 {
			t.Skip()
		}
		// Decode the tape into one valid plaintext delta against text.
		var pd delta.Delta
		cursor := 0
		for i := 0; i+2 < len(tape); i += 3 {
			kind, a, b := tape[i]%3, int(tape[i+1]), tape[i+2]
			switch kind {
			case 0: // retain
				if left := len(text) - cursor; left > 0 {
					n := 1 + a%left
					pd = append(pd, delta.RetainOp(n))
					cursor += n
				}
			case 1: // delete
				if left := len(text) - cursor; left > 0 {
					n := 1 + a%left
					pd = append(pd, delta.DeleteOp(n))
					cursor += n
				}
			default: // insert
				pd = append(pd, delta.InsertOp(string([]byte{b, byte(a)})))
			}
		}
		if pd.Validate(len(text)) != nil {
			t.Skip()
		}
		wantText, err := pd.Apply(text)
		if err != nil {
			t.Skip()
		}

		for name, c := range codecs(t, 77) {
			doc, err := blockdoc.New(c, 4, testSalt(), testKC())
			if err != nil {
				t.Fatalf("%s: New: %v", name, err)
			}
			if err := doc.LoadPlaintext(text); err != nil {
				t.Fatalf("%s: LoadPlaintext: %v", name, err)
			}
			before := doc.Transport()
			cd, err := doc.TransformDelta(pd)
			if err != nil {
				t.Fatalf("%s: TransformDelta(%q): %v", name, pd.String(), err)
			}
			if got := doc.Plaintext(); got != wantText {
				t.Fatalf("%s: plaintext %q, want %q", name, got, wantText)
			}
			after, err := cd.Apply(before)
			if err != nil {
				t.Fatalf("%s: server apply: %v", name, err)
			}
			if after != doc.Transport() {
				t.Fatalf("%s: server-side transport diverges from client state", name)
			}
			if err := doc.SelfCheck(); err != nil {
				t.Fatalf("%s: self check: %v", name, err)
			}
		}
	})
}

// TestBurstCoalescingShrinksCipherDelta replays a burst-edit tape on
// identically seeded documents: each burst as one TransformDelta call, the
// same bursts already coalesced, and the same keystrokes one Splice call
// each. TransformDelta always coalesces, so the first two must emit
// byte-identical ciphertext deltas. All three must reach the same
// plaintext, and the burst calls must emit fewer ciphertext-delta bytes
// than the keystroke calls, since each keystroke call rewrites its
// boundary blocks and ships them again.
func TestBurstCoalescingShrinksCipherDelta(t *testing.T) {
	for _, scheme := range []string{"rECB", "RPC"} {
		t.Run(scheme, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			text := goldenText(rng, 2_000)
			tape := goldenTape(rng, len(text), 150, 0)
			want := text
			for i, pd := range tape {
				var err error
				if want, err = pd.Apply(want); err != nil {
					t.Fatalf("op %d: plaintext apply: %v", i, err)
				}
			}

			open := func() *blockdoc.Document {
				doc, err := blockdoc.New(codecs(t, 17)[scheme], 4, testSalt(), testKC())
				if err != nil {
					t.Fatal(err)
				}
				if err := doc.LoadPlaintext(text); err != nil {
					t.Fatal(err)
				}
				return doc
			}
			burst, canon, keys := open(), open(), open()
			burstBytes, keyBytes := 0, 0
			for i, pd := range tape {
				cd, err := burst.TransformDelta(pd)
				if err != nil {
					t.Fatalf("op %d: TransformDelta: %v", i, err)
				}
				burstBytes += len(cd.String())
				ccd, err := canon.TransformDelta(pd.Coalesce())
				if err != nil {
					t.Fatalf("op %d: TransformDelta of the coalesced burst: %v", i, err)
				}
				if ccd.String() != cd.String() {
					t.Fatalf("op %d: the burst and its coalesced form emit different ciphertext deltas", i)
				}

				// The same burst as keystrokes: an insert types at the
				// cursor and moves it on; a delete removes the character
				// under it.
				cursor := 0
				for _, op := range pd {
					var steps []delta.Delta
					switch op.Kind {
					case delta.Retain:
						cursor += op.N
					case delta.Insert:
						for _, r := range op.Str {
							cd, err := keys.Splice(cursor, 0, string(r))
							if err != nil {
								t.Fatalf("op %d: insert keystroke: %v", i, err)
							}
							steps = append(steps, cd)
							cursor += len(string(r))
						}
					case delta.Delete:
						for k := 0; k < op.N; k++ {
							cd, err := keys.Splice(cursor, 1, "")
							if err != nil {
								t.Fatalf("op %d: delete keystroke: %v", i, err)
							}
							steps = append(steps, cd)
						}
					}
					for _, cd := range steps {
						keyBytes += len(cd.String())
					}
				}
			}
			if burst.Plaintext() != want || keys.Plaintext() != want {
				t.Fatal("burst and keystroke replays diverge from the tape applied to the source")
			}
			if burstBytes >= keyBytes {
				t.Fatalf("burst calls emitted %d ciphertext-delta bytes, keystroke calls %d: coalescing saved nothing", burstBytes, keyBytes)
			}
			t.Logf("%s: %d ciphertext-delta bytes as bursts, %d as keystrokes", scheme, burstBytes, keyBytes)
		})
	}
}
