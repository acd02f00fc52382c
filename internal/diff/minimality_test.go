package diff

import (
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"privedit/internal/delta"
)

// dpDistance is the brute-force O(N·M) reference: the minimum number of
// token insertions plus deletions transforming a's tokens into b's
// (equivalently N + M - 2·LCS). It is the ground truth the linear-space
// middle-snake implementation must match.
func dpDistance(a, b string) int {
	at, bt := tokenize(a).tok, tokenize(b).tok
	n, m := len(at), len(bt)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= n; i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			if at[i-1] == bt[j-1] {
				cur[j] = prev[j-1]
			} else {
				del := prev[j] + 1
				ins := cur[j-1] + 1
				if del < ins {
					cur[j] = del
				} else {
					cur[j] = ins
				}
			}
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// scriptTokenCost walks d over a and counts the tokens (runes) deleted
// plus inserted, the unit in which the script claims minimality.
func scriptTokenCost(t *testing.T, d delta.Delta, a string) int {
	t.Helper()
	cost := 0
	cursor := 0
	for _, op := range d {
		switch op.Kind {
		case delta.Retain:
			cursor += op.N
		case delta.Delete:
			cost += utf8.RuneCountInString(a[cursor : cursor+op.N])
			cursor += op.N
		case delta.Insert:
			cost += utf8.RuneCountInString(op.Str)
		}
	}
	return cost
}

func randASCII(rng *rand.Rand, n int, alphabet string) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

func randUnicode(rng *rand.Rand, n int) string {
	runes := []rune{'a', 'b', 'é', 'ü', '日', '本', '語', '𝛼', '𝛽', '€', 'ß'}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteRune(runes[rng.Intn(len(runes))])
	}
	return sb.String()
}

// TestDistanceMatchesDP verifies minimality of the middle-snake search
// against the quadratic DP reference on small random inputs. For ASCII the
// byte distance and the token distance coincide, so this pins Distance
// itself; the small alphabet maximizes snake/overlap edge cases.
func TestDistanceMatchesDP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 3000; trial++ {
		a := randASCII(rng, rng.Intn(14), "ab")
		b := randASCII(rng, rng.Intn(14), "ab")
		want := dpDistance(a, b)
		if got := Distance(a, b); got != want {
			t.Fatalf("Distance(%q,%q) = %d, DP reference = %d (delta %q)",
				a, b, got, want, Diff(a, b).String())
		}
	}
	for trial := 0; trial < 500; trial++ {
		a := randASCII(rng, rng.Intn(40), "abcde ")
		b := randASCII(rng, rng.Intn(40), "abcde ")
		want := dpDistance(a, b)
		if got := Distance(a, b); got != want {
			t.Fatalf("Distance(%q,%q) = %d, DP reference = %d", a, b, got, want)
		}
	}
}

// TestDistanceMatchesDPMultibyte verifies rune-unit minimality on
// multibyte inputs: the script's rune cost must equal the token DP.
func TestDistanceMatchesDPMultibyte(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 1500; trial++ {
		a := randUnicode(rng, rng.Intn(12))
		b := randUnicode(rng, rng.Intn(12))
		d := Diff(a, b)
		if got := mustApply(t, d, a); got != b {
			t.Fatalf("Diff(%q,%q) does not round-trip: got %q", a, b, got)
		}
		want := dpDistance(a, b)
		if got := scriptTokenCost(t, d, a); got != want {
			t.Fatalf("Diff(%q,%q) costs %d rune edits, DP reference = %d (delta %q)",
				a, b, got, want, d.String())
		}
	}
}

// TestReplacementBranchUnreachable exercises the defensive sn.d <= 1
// branch in diffRec: after prefix/suffix trimming of non-empty, non-equal
// token ranges the true distance is ≥ 2, so a minimal-distance report of 0
// or 1 from middleSnake would signal a search bug. The DP comparison above
// would catch the resulting non-minimal replacement; here we additionally
// pin the exact boundary cases (distance exactly 2, every length mix).
func TestReplacementBranchUnreachable(t *testing.T) {
	cases := []struct{ a, b string }{
		{"x", "y"},     // 1 vs 1, distance 2
		{"xa", "ya"},   // shared suffix
		{"ax", "ay"},   // shared prefix
		{"x", "yx"},    // prepend
		{"xy", "yx"},   // swap
		{"ab", "ba"},   // swap
		{"aba", "bab"}, // alternating
	}
	for _, tc := range cases {
		if got, want := Distance(tc.a, tc.b), dpDistance(tc.a, tc.b); got != want {
			t.Errorf("Distance(%q,%q) = %d, want %d", tc.a, tc.b, got, want)
		}
	}
}

// checkRuneAligned asserts every operation boundary of d over a falls on a
// rune boundary: retained and deleted source segments and inserted
// payloads must each be valid UTF-8 when the inputs are.
func checkRuneAligned(t *testing.T, d delta.Delta, a string) {
	t.Helper()
	cursor := 0
	for _, op := range d {
		switch op.Kind {
		case delta.Retain, delta.Delete:
			seg := a[cursor : cursor+op.N]
			if !utf8.ValidString(seg) {
				t.Fatalf("op %s%d at byte %d splits a rune: segment %q", op.Kind, op.N, cursor, seg)
			}
			cursor += op.N
		case delta.Insert:
			if !utf8.ValidString(op.Str) {
				t.Fatalf("insert %q at byte %d is not valid UTF-8", op.Str, cursor)
			}
		}
	}
}

// TestDiffNeverSplitsRune is the regression test for the unit-of-position
// bug: the old byte-level Myers could retain half of a multibyte rune and
// delete the other half, producing deltas whose counts no longer aligned
// with character positions.
func TestDiffNeverSplitsRune(t *testing.T) {
	cases := []struct{ a, b string }{
		{"é", "è"},       // same lead byte, different continuation
		{"日本語", "日本話"},   // shared 2-byte prefix inside final rune
		{"aé", "aè"},     // ASCII prefix
		{"día", "dia"},   // accent removed
		{"𝛼𝛽", "𝛽𝛼"},     // 4-byte runes swapped
		{"caña", "cana"}, //
		{"€100", "€200"}, //
		{"日本語テキスト", "日本語のテキスト"}, // insertion mid-string
	}
	for _, tc := range cases {
		d := Diff(tc.a, tc.b)
		if got := mustApply(t, d, tc.a); got != tc.b {
			t.Fatalf("Diff(%q,%q) does not round-trip: got %q", tc.a, tc.b, got)
		}
		checkRuneAligned(t, d, tc.a)
	}
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 500; trial++ {
		a := randUnicode(rng, rng.Intn(30))
		b := randUnicode(rng, rng.Intn(30))
		d := Diff(a, b)
		if got := mustApply(t, d, a); got != b {
			t.Fatalf("trial %d: round-trip failed", trial)
		}
		checkRuneAligned(t, d, a)
	}
}

// TestDiffInvalidUTF8 pins the arbitrary-byte-string contract: invalid
// bytes are one-byte tokens and the diff still round-trips exactly.
func TestDiffInvalidUTF8(t *testing.T) {
	cases := []struct{ a, b string }{
		{"\xff\xfe", "\xff"},
		{"a\x80b", "a\x81b"},
		{"é"[:1], "é"},           // lone lead byte vs full rune
		{"\xf0\x9d\x9b", "𝛼"},    // truncated 4-byte sequence vs full
		{"ab\xc3", "ab\xc3\xa9"}, // truncated suffix completed
		{string([]byte{0, 255}), ""},
	}
	for _, tc := range cases {
		d := Diff(tc.a, tc.b)
		if got := mustApply(t, d, tc.a); got != tc.b {
			t.Fatalf("Diff(%q,%q) does not round-trip: got %q", tc.a, tc.b, got)
		}
	}
}

// Long shared ends around a differing 2-byte rune that straddles a
// 64-byte chunk boundary: after chunkPad the rune spans bytes 63 and 64,
// so the chunked prefix skip stops mid-rune and must back off.
var (
	chunkPad  = strings.Repeat("x", 63)
	chunkLong = strings.Repeat("0123456789abcdef", 12)
)

// TestDiffTrimAcrossChunks covers the chunked prefix/suffix skip: runes
// that differ in their continuation byte across a chunk boundary, at the
// front, at the back and at both ends, plus edits that sit exactly on a
// boundary. Each script must round-trip, keep runes whole and stay
// minimal against the DP reference.
func TestDiffTrimAcrossChunks(t *testing.T) {
	cases := []struct{ a, b string }{
		{chunkPad + "é" + chunkLong, chunkPad + "è" + chunkLong},
		{chunkLong + "é" + chunkPad, chunkLong + "è" + chunkPad},
		{chunkPad + "é" + chunkLong + "é" + chunkPad, chunkPad + "è" + chunkLong + "è" + chunkPad},
		{chunkPad + "日本" + chunkLong, chunkPad + "日本語" + chunkLong},
		{chunkLong + chunkLong, chunkLong + "€" + chunkLong},
		{chunkPad + "é" + chunkLong, chunkPad + chunkLong},
		{chunkLong, chunkLong},
	}
	for _, tc := range cases {
		d := Diff(tc.a, tc.b)
		if got := mustApply(t, d, tc.a); got != tc.b {
			t.Fatalf("Diff(%q,%q) does not round-trip: got %q", tc.a, tc.b, got)
		}
		checkRuneAligned(t, d, tc.a)
		if got, want := scriptTokenCost(t, d, tc.a), dpDistance(tc.a, tc.b); got != want {
			t.Errorf("Diff(%q,%q) costs %d rune edits, DP reference = %d (delta %q)", tc.a, tc.b, got, want, d.String())
		}
	}
}

// FuzzDiff fuzzes the round-trip property with a multibyte-heavy corpus,
// plus rune alignment whenever both inputs are valid UTF-8.
func FuzzDiff(f *testing.F) {
	f.Add("", "")
	f.Add("abc", "abd")
	f.Add("é", "è")
	f.Add("日本語", "日本話")
	f.Add("𝛼𝛽𝛾", "𝛾𝛽𝛼")
	f.Add("naïve café", "naive cafe")
	f.Add("a\x80b", "ab")
	f.Add(strings.Repeat("ü", 50), strings.Repeat("ü", 49)+"u")
	f.Add(chunkPad+"é"+chunkLong, chunkPad+"è"+chunkLong)
	f.Add(chunkLong+"é"+chunkPad, chunkLong+"è"+chunkPad)
	f.Fuzz(func(t *testing.T, a, b string) {
		d := Diff(a, b)
		got, err := d.Apply(a)
		if err != nil {
			t.Fatalf("Diff(%q,%q) = %q does not apply: %v", a, b, d.String(), err)
		}
		if got != b {
			t.Fatalf("Diff(%q,%q) applies to %q, want %q", a, b, got, b)
		}
		if utf8.ValidString(a) && utf8.ValidString(b) {
			checkRuneAligned(t, d, a)
		}
	})
}
