package blockdoc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"privedit/internal/blockdoc"
	"privedit/internal/delta"
)

// goldenText returns n deterministic lowercase-and-space characters.
func goldenText(rng *rand.Rand, n int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz     "
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(buf)
}

// goldenTape builds a burst-edit op tape against a document of docLen
// characters: runs of single-character insertions and deletions at a
// mostly local cursor, and — when paste is set — one paste and one cut
// large enough that a single splice re-encrypts more than 2,048 blocks.
func goldenTape(rng *rand.Rand, docLen, ops, paste int) []delta.Delta {
	tape := make([]delta.Delta, 0, ops)
	pos, length := docLen/2, docLen
	for i := 0; i < ops; i++ {
		if rng.Intn(8) == 0 || pos > length {
			pos = rng.Intn(length + 1)
		} else if pos > 0 && rng.Intn(4) == 0 {
			pos -= rng.Intn(min(pos, 40) + 1)
		}
		cutting := paste > 0 && i == 2*ops/3
		if cutting {
			pos = min(pos, length-paste)
		}
		pd := delta.Delta{delta.RetainOp(pos)}
		switch {
		case paste > 0 && i == ops/3:
			pd = append(pd, delta.InsertOp(goldenText(rng, paste)))
			length += paste
			pos += paste
		case cutting:
			pd = append(pd, delta.DeleteOp(paste))
			length -= paste
		default:
			ins, dels := 0, 0
			for k := 0; k < 12; k++ {
				if rng.Intn(4) == 0 && pos+dels < length {
					pd = append(pd, delta.DeleteOp(1))
					dels++
				} else {
					pd = append(pd, delta.InsertOp(string(rune('a'+rng.Intn(26)))))
					ins++
				}
			}
			length += ins - dels
			pos += ins
		}
		tape = append(tape, pd.Normalize())
	}
	return tape
}

// TestGoldenTransport pins the ciphertext byte for byte. A seeded burst-edit
// tape with seeded nonces is replayed through TransformDelta for both
// schemes, b = 4 and b = 8, on documents below and above 2,048 blocks; the
// SHA-256 of each final transport is fixed. Any change to how the codecs
// draw nonces, seal records or fold the RPC checksum, or to how the
// container is serialized, changes a digest. Along the way every ciphertext
// delta must reproduce the client's transport when applied server-side, and
// the final transport must reopen to the same plaintext and bytes.
func TestGoldenTransport(t *testing.T) {
	cases := []struct {
		scheme string
		b      int
		blocks int // initial document size in blocks
		want   string
	}{
		{"rECB", 4, 1500, "4b5b05edc827e6c40eb162a27ac2ed8cd73f500092b7503d95b49a4abe69d8d5"},
		{"rECB", 4, 3000, "9933ee6101a1d2969317ea7ec5827d08895bdd7ee1e598553ea61ddb0c77f798"},
		{"rECB", 8, 1500, "7244954ad2ff1052645da8ea5f03ac429e6b2e51931474dfe3b71c3d421ecf6d"},
		{"rECB", 8, 3000, "b584b5bff561d747d5ded9ce5916a983a75b51d6b4e247fa98ae2930a062bab5"},
		{"RPC", 4, 1500, "cc05786cd8627c141cd79ee0d456b19e4c6deaf92519f8768392deac935a16b2"},
		{"RPC", 4, 3000, "6d14596faf3a6c5dd0c32310019eb5445877dea2426726c44c91894a6b557d63"},
		{"RPC", 8, 1500, "498955af7e934135cfdd48e77c261ade2d78cf909019a0b1f157ca55cdca15d4"},
		{"RPC", 8, 3000, "93d76c8447a015c7d1ff019dde0e56a6a8c9f4560d5e6851079bbb4028b4c80f"},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s/b=%d/blocks=%d", tc.scheme, tc.b, tc.blocks)
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.b*100000 + tc.blocks)))
			text := goldenText(rng, tc.blocks*tc.b)
			paste := 0
			if tc.blocks > 2048 {
				paste = 2100 * tc.b
			}
			tape := goldenTape(rng, len(text), 60, paste)
			if paste > 0 {
				pasted, cut := false, false
				for _, pd := range tape {
					pasted = pasted || pd.InsertLen() == paste
					cut = cut || pd.DeleteLen() == paste
				}
				if !pasted || !cut {
					t.Fatalf("tape lacks the %d-char paste (%v) or cut (%v)", paste, pasted, cut)
				}
			}

			doc, err := blockdoc.New(codecs(t, 17)[tc.scheme], tc.b, testSalt(), testKC())
			if err != nil {
				t.Fatal(err)
			}
			if err := doc.LoadPlaintext(text); err != nil {
				t.Fatal(err)
			}
			server := doc.Transport()
			for i, pd := range tape {
				if text, err = pd.Apply(text); err != nil {
					t.Fatalf("op %d: plaintext apply: %v", i, err)
				}
				cd, err := doc.TransformDelta(pd)
				if err != nil {
					t.Fatalf("op %d: TransformDelta: %v", i, err)
				}
				if server, err = cd.Apply(server); err != nil {
					t.Fatalf("op %d: server apply: %v", i, err)
				}
			}
			final := doc.Transport()
			if final != server {
				t.Fatal("server-side transport diverges from the client's")
			}
			if doc.Plaintext() != text {
				t.Fatal("plaintext diverges from the tape applied to the source")
			}

			reopened, err := blockdoc.New(codecs(t, 18)[tc.scheme], tc.b, testSalt(), testKC())
			if err != nil {
				t.Fatal(err)
			}
			if err := reopened.LoadTransport(final); err != nil {
				t.Fatalf("LoadTransport: %v", err)
			}
			if reopened.Plaintext() != text || reopened.Transport() != final {
				t.Fatal("reopened document differs from the original")
			}

			sum := sha256.Sum256([]byte(final))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("transport sha256 = %s, want %s", got, tc.want)
			}
		})
	}
}
