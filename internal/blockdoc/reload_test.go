package blockdoc_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"privedit/internal/blockdoc"
	"privedit/internal/crypt"
	"privedit/internal/delta"
	"privedit/internal/recb"
	"privedit/internal/rpcmode"
)

// resetNonces is a nonce source that can be rewound to a seed, so two
// documents can be made to draw the same nonces for one splice.
type resetNonces struct{ src *crypt.SeededNonceSource }

func (r *resetNonces) Nonce64() uint64   { return r.src.Nonce64() }
func (r *resetNonces) reset(seed uint64) { r.src = crypt.NewSeededNonceSource(seed) }

// reloadDoc builds a document of the named scheme under the shared test key,
// with a rewindable nonce source.
func reloadDoc(t testing.TB, scheme string, b int, seed uint64) (*blockdoc.Document, *resetNonces) {
	t.Helper()
	nonces := &resetNonces{src: crypt.NewSeededNonceSource(seed)}
	var c blockdoc.Codec
	var err error
	if scheme == "RPC" {
		c, err = rpcmode.New(testKey(), nonces)
	} else {
		c, err = recb.New(testKey(), nonces)
	}
	if err != nil {
		t.Fatal(err)
	}
	doc, err := blockdoc.New(c, b, testSalt(), testKC())
	if err != nil {
		t.Fatal(err)
	}
	return doc, nonces
}

// sameRing reports an error unless docs x and y, splicing the same edit
// under the same nonces, emit the same ciphertext delta: equal records,
// and, for RPC, equal ring state, since the new checksum block folds in
// the aggregates and the count. Both documents advance by the edit.
func sameRing(x, y *blockdoc.Document, xn, yn *resetNonces, seed uint64) error {
	pos := x.Len() / 3
	xn.reset(seed)
	yn.reset(seed)
	cx, errx := x.Splice(pos, min(3, x.Len()-pos), "probe")
	cy, erry := y.Splice(pos, min(3, y.Len()-pos), "probe")
	if errx != nil || erry != nil {
		return fmt.Errorf("probe splice: %v / %v", errx, erry)
	}
	if cx.String() != cy.String() {
		return errors.New("probe splice ciphertexts differ")
	}
	return nil
}

// reloadTape returns one of the remote edit tapes replayed into the
// reloading document, for a document of n characters: edits at the head,
// at the tail, over the whole document, down to and up from the empty
// document, deltas with several hunks, and a small hunk before one wider
// than a 128-record tile of the RPC kernel, then that hunk's removal.
func reloadTape(rng *rand.Rand, n int, name string) []delta.Delta {
	word := func() string { return goldenText(rng, 1+rng.Intn(20)) }
	length := n
	var tape []delta.Delta
	add := func(pd delta.Delta) {
		tape = append(tape, pd)
		length += pd.InsertLen() - pd.DeleteLen()
	}
	hunks := func(k int) delta.Delta {
		var pd delta.Delta
		pos := 0
		for h := 0; h < k && pos < length; h++ {
			skip := rng.Intn((length-pos)/(k-h) + 1)
			del := min(rng.Intn(10), length-pos-skip)
			pd = append(pd, delta.RetainOp(skip), delta.DeleteOp(del), delta.InsertOp(word()))
			pos += skip + del
		}
		return pd.Normalize()
	}
	switch name {
	case "head":
		add(delta.Delta{delta.InsertOp("head ")})
		add(delta.Delta{delta.DeleteOp(3), delta.InsertOp(word())})
		add(delta.Delta{delta.DeleteOp(1)})
	case "tail":
		add(delta.Delta{delta.RetainOp(length), delta.InsertOp(" tail")})
		add(delta.Delta{delta.RetainOp(length - 4), delta.DeleteOp(4)})
		add(delta.Delta{delta.RetainOp(length - 9), delta.DeleteOp(9), delta.InsertOp(word())})
	case "whole":
		add(delta.Delta{delta.DeleteOp(length), delta.InsertOp(goldenText(rng, n))})
		add(delta.Delta{delta.RetainOp(length / 2), delta.InsertOp(word())})
	case "empty":
		add(delta.Delta{delta.DeleteOp(length)})
		add(delta.Delta{delta.InsertOp(word())})
		add(delta.Delta{delta.DeleteOp(length)})
		add(delta.Delta{delta.InsertOp(goldenText(rng, n))})
	case "wide":
		w := word()
		at := 5 + len(w) + length/2
		add(delta.Delta{delta.RetainOp(5), delta.DeleteOp(1), delta.InsertOp(w), delta.RetainOp(length / 2), delta.InsertOp(goldenText(rng, 1300))}.Normalize())
		add(delta.Delta{delta.RetainOp(at), delta.DeleteOp(1300)})
	default: // multi-hunk
		for _, k := range []int{2, 5, 12} {
			add(hunks(k))
		}
	}
	return tape
}

// TestReloadMatchesFreshLoad replays seeded remote edit tapes from document
// A into document B's Reload and checks B against a fresh LoadTransport of
// the same container: plaintext, transport, the returned plaintext delta,
// and the next splice's ciphertext under a fixed nonce source. Before every
// other reload B makes a local edit of its own, as a writer whose save was
// rejected does, so the reload also has to revert it.
func TestReloadMatchesFreshLoad(t *testing.T) {
	for _, scheme := range []string{"rECB", "RPC"} {
		for _, b := range []int{4, 8} {
			for _, name := range []string{"head", "tail", "whole", "empty", "multi-hunk", "wide"} {
				t.Run(fmt.Sprintf("%s/b=%d/%s", scheme, b, name), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(b*31 + len(name))))
					text := goldenText(rng, 400*b)
					tape := reloadTape(rng, len(text), name)
					a, _ := reloadDoc(t, scheme, b, 1)
					bd, bn := reloadDoc(t, scheme, b, 2)
					if err := a.LoadPlaintext(text); err != nil {
						t.Fatal(err)
					}
					if err := bd.LoadTransport(a.Transport()); err != nil {
						t.Fatal(err)
					}
					for i, pd := range tape {
						if i%2 == 1 {
							if _, err := bd.Splice(bd.Len()/2, min(2, bd.Len()/2), "local"); err != nil {
								t.Fatal(err)
							}
						}
						before := bd.Plaintext()
						if _, err := a.TransformDelta(pd); err != nil {
							t.Fatalf("step %d: A: %v", i, err)
						}
						container := a.Transport()
						change, err := bd.Reload(container)
						if err != nil {
							t.Fatalf("step %d: Reload: %v", i, err)
						}
						fresh, fn := reloadDoc(t, scheme, b, 3)
						if err := fresh.LoadTransport(container); err != nil {
							t.Fatalf("step %d: fresh LoadTransport: %v", i, err)
						}
						if got, want := bd.Plaintext(), fresh.Plaintext(); got != want || want != a.Plaintext() {
							t.Fatalf("step %d: plaintext differs from a fresh load", i)
						}
						if got, err := change.Apply(before); err != nil || got != fresh.Plaintext() {
							t.Fatalf("step %d: returned delta does not take the old text to the new (%v)", i, err)
						}
						if bd.Transport() != container || fresh.Transport() != container {
							t.Fatalf("step %d: transport differs from the loaded container", i)
						}
						if err := sameRing(bd, fresh, bn, fn, uint64(100+i)); err != nil {
							t.Fatalf("step %d: %v", i, err)
						}
						// Undo the probe splice from A's container again.
						if err := bd.LoadTransport(container); err != nil {
							t.Fatalf("step %d: reload after probe: %v", i, err)
						}
					}
				})
			}
		}
	}
}

// TestReloadRejectsTampering serves an RPC document a remote edit with one
// of six server-side manipulations. Each must fail with ErrIntegrity and
// leave the document as it was: same plaintext, same transport, same ring
// state. The untampered container must then load.
func TestReloadRejectsTampering(t *testing.T) {
	for _, b := range []int{4, 8} {
		rng := rand.New(rand.NewSource(int64(b)))
		text := goldenText(rng, 300*b)
		a, _ := reloadDoc(t, "RPC", b, 1)
		if err := a.LoadPlaintext(text); err != nil {
			t.Fatal(err)
		}
		c0 := a.Transport()
		pos := len(text) / 2
		if _, err := a.Splice(pos, 3, "remote edit"); err != nil {
			t.Fatal(err)
		}
		c1 := a.Transport()

		recChars := crypt.TransportLen(crypt.WideBlockSize) // one record, and the trailer
		prefixChars := len(c1) - (a.Blocks()+1)*recChars
		slot := func(c string, i int) string {
			return c[prefixChars+i*recChars : prefixChars+(i+1)*recChars]
		}
		first := 0 // first record slot the edit changed
		for slot(c0, first) == slot(c1, first) {
			first++
		}
		n1 := (len(c1) - prefixChars - recChars) / recChars
		withSlot := func(c string, i int, rec string) string {
			return c[:prefixChars+i*recChars] + rec + c[prefixChars+(i+1)*recChars:]
		}
		// A second edit of c0 appends one block. Drop it again and put
		// c0's trailer back: the rewritten last record still carries the
		// nonce and data the trailer folds in, and only its next pointer —
		// the ring closure — gives the rollback away.
		if err := a.LoadTransport(c0); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Splice(len(text), 0, text[:b]); err != nil {
			t.Fatal(err)
		}
		c2 := a.Transport()
		rolledBack := c2[:len(c2)-2*recChars] + c0[len(c0)-recChars:]

		flip := []byte(slot(c1, first))
		if flip[10] == 'A' {
			flip[10] = 'B'
		} else {
			flip[10] = 'A'
		}
		tampered := map[string]string{
			"flipped byte":     withSlot(c1, first, string(flip)),
			"swapped records":  withSlot(withSlot(c1, n1-4, slot(c1, n1-3)), n1-3, slot(c1, n1-4)),
			"replayed record":  withSlot(c1, first, slot(c0, first)),
			"dropped record":   c1[:prefixChars+5*recChars] + c1[prefixChars+6*recChars:],
			"stale trailer":    c1[:len(c1)-recChars] + c0[len(c0)-recChars:],
			"rolled-back tail": rolledBack,
		}
		for name, bad := range tampered {
			t.Run(fmt.Sprintf("b=%d/%s", b, name), func(t *testing.T) {
				if bad == c1 {
					t.Fatal("tampering left the container unchanged")
				}
				doc, dn := reloadDoc(t, "RPC", b, 2)
				if err := doc.LoadTransport(c0); err != nil {
					t.Fatal(err)
				}
				if _, err := doc.Reload(bad); !errors.Is(err, blockdoc.ErrIntegrity) {
					t.Fatalf("Reload = %v, want ErrIntegrity", err)
				}
				if doc.Plaintext() != text || doc.Transport() != c0 {
					t.Fatal("failed reload changed the document")
				}
				ref, rn := reloadDoc(t, "RPC", b, 3)
				if err := ref.LoadTransport(c0); err != nil {
					t.Fatal(err)
				}
				if err := sameRing(doc, ref, dn, rn, 9); err != nil {
					t.Fatalf("failed reload changed the ring state: %v", err)
				}
				if err := doc.LoadTransport(c0); err != nil {
					t.Fatal(err)
				}
				if err := doc.LoadTransport(c1); err != nil {
					t.Fatalf("untampered container: %v", err)
				}
			})
		}
	}
}

// FuzzReload reloads a document from a mutated edit of its own container.
// Whatever the mutation, the reload must agree with a fresh load of the
// same string: both accept it, with the same plaintext and transport, or
// both reject it and the reloading document is unchanged.
func FuzzReload(f *testing.F) {
	f.Add("RPC", 8, 40, 3, "edit", 0, byte(0))
	f.Add("RPC", 4, 0, 0, "head", 100, byte('Q'))
	f.Add("rECB", 8, 79, 1, "", 50, byte('2'))
	f.Add("rECB", 4, 10, 5, "x", -1, byte(0))
	f.Fuzz(func(t *testing.T, scheme string, b, pos, del int, ins string, at int, to byte) {
		if scheme != "RPC" {
			scheme = "rECB"
		}
		b = 1 + (b%8+8)%8
		text := "a seed document for the reload fuzzer, long enough for several blocks"
		a, _ := reloadDoc(t, scheme, b, 1)
		if err := a.LoadPlaintext(text); err != nil {
			t.Fatal(err)
		}
		c0 := a.Transport()
		pos = (pos%(len(text)+1) + len(text) + 1) % (len(text) + 1)
		del = (del%(len(text)-pos+1) + len(text) - pos + 1) % (len(text) - pos + 1)
		if _, err := a.Splice(pos, del, ins); err != nil {
			return
		}
		c1 := []byte(a.Transport())
		if at >= 0 && at < len(c1) && to != 0 {
			c1[at] = to
		}
		doc, _ := reloadDoc(t, scheme, b, 2)
		if err := doc.LoadTransport(c0); err != nil {
			t.Fatal(err)
		}
		fresh, _ := reloadDoc(t, scheme, b, 3)
		freshErr := fresh.LoadTransport(string(c1))
		_, err := doc.Reload(string(c1))
		if (err == nil) != (freshErr == nil) {
			t.Fatalf("reload error %v, fresh load error %v", err, freshErr)
		}
		if err != nil {
			if doc.Plaintext() != text || doc.Transport() != c0 {
				t.Fatal("rejected reload changed the document")
			}
			return
		}
		if doc.Plaintext() != fresh.Plaintext() || doc.Transport() != fresh.Transport() {
			t.Fatal("reload differs from a fresh load")
		}
	})
}
