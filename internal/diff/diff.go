// Package diff derives a delta (in the Google Docs delta language) that
// transforms one document into another. The paper's micro-benchmark
// (§VII-B) requires exactly this: "For every (D, D′) pair, a delta string
// is derived such that it transforms D to D′." It is also the engine
// behind the covert-channel defense of §VI-B that recomputes deltas "from
// the two versions of the document directly instead of using the delta
// values computed by the provided client."
//
// The implementation is Myers' O(ND) difference algorithm in its
// linear-space divide-and-conquer form (middle snake), so memory stays
// O(N+M) even for unrelated documents.
//
// Unit of position: delta counts (=n, -n) are BYTES of the UTF-8 encoded
// document, matching the delta language, the block engine, and the skip
// list (see DESIGN.md §11). The edit script itself, however, is computed
// over UTF-8 runes: every retain/delete boundary falls on a rune boundary,
// so a multibyte character is never split between operations. Bytes that
// do not form valid UTF-8 are treated as one-byte units, which keeps
// Apply(Diff(a, b), a) == b for arbitrary byte strings.
package diff

import (
	"unicode/utf8"

	"privedit/internal/delta"
)

// Diff returns a rune-aligned minimal edit script transforming a into b,
// expressed as a burst-canonical delta (delta.Coalesce) with byte counts:
// Apply(Diff(a, b), a) == b. Minimality is in rune units: no script that
// also respects rune boundaries inserts or deletes fewer runes.
//
// Canonical form matters beyond tidiness: the Myers recursion can split
// one replaced region into interleaved delete/insert fragments depending
// on where the middle snake lands, and two equivalent spellings of the
// same edit transform differently against a concurrent delta (an insert
// placed between two delete fragments lands at a different spot than one
// placed after the merged delete). Every delta producer in the module —
// Diff, Compose, Transform — emits the same canonical spelling, so
// independently derived deltas of the same edit merge identically.
func Diff(a, b string) delta.Delta {
	var d delta.Delta

	// Bytewise common-prefix/suffix fast path: a small edit in a large
	// document should not pay for tokenizing the whole document. The trim
	// points are backed off to rune boundaries of both strings so the
	// middle handed to the token diff never starts or ends mid-rune. Each
	// end is skipped a chunk at a time (one memequal per chunk) before the
	// byte loop finds the exact mismatch.
	const chunk = 64
	p := 0
	short := min(len(a), len(b))
	for p+chunk <= short && a[p:p+chunk] == b[p:p+chunk] {
		p += chunk
	}
	for p < short && a[p] == b[p] {
		p++
	}
	for p > 0 && (!boundary(a, p) || !boundary(b, p)) {
		p--
	}
	s := 0
	for s+chunk <= short-p && a[len(a)-s-chunk:len(a)-s] == b[len(b)-s-chunk:len(b)-s] {
		s += chunk
	}
	for s < short-p && a[len(a)-1-s] == b[len(b)-1-s] {
		s++
	}
	for s > 0 && (!boundary(a, len(a)-s) || !boundary(b, len(b)-s)) {
		s--
	}

	if p > 0 {
		d = append(d, delta.RetainOp(p))
	}
	av := tokenize(a[p : len(a)-s])
	bv := tokenize(b[p : len(b)-s])
	diffRec(av, 0, len(av.tok), bv, 0, len(bv.tok), &d)
	if s > 0 {
		d = append(d, delta.RetainOp(s))
	}
	return d.Coalesce()
}

// Distance returns the edit distance between a and b in bytes (inserted
// plus deleted bytes of the rune-aligned script). For ASCII inputs this is
// the classical Myers insert+delete distance.
func Distance(a, b string) int {
	d := Diff(a, b)
	return d.InsertLen() + d.DeleteLen()
}

// boundary reports whether byte offset i of s is a safe cut point: the
// start or end of the string, or the first byte of a UTF-8 sequence.
func boundary(s string, i int) bool {
	return i == 0 || i == len(s) || utf8.RuneStart(s[i])
}

// side is one input tokenized into rune-or-byte units. Token i covers the
// bytes src[off[i]:off[i+1]]; tok[i] packs those bytes plus their length
// into one word so token equality is a single integer compare.
type side struct {
	src string
	off []int32  // len(tok)+1 byte offsets into src
	tok []uint64 // packed content
}

// tokenize splits s into UTF-8 runes, treating every byte that is not part
// of a valid encoding as its own one-byte token. Two tokens are equal iff
// their underlying byte sequences are equal, which the packing preserves
// (a rune's bytes fit in 32 bits; the length tag disambiguates).
func tokenize(s string) side {
	v := side{
		src: s,
		off: make([]int32, 1, len(s)+1),
		tok: make([]uint64, 0, len(s)),
	}
	for i := 0; i < len(s); {
		n := 1
		if s[i] >= utf8.RuneSelf {
			if r, size := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size > 1 {
				n = size
			}
		}
		var packed uint64
		for j := 0; j < n; j++ {
			packed = packed<<8 | uint64(s[i+j])
		}
		packed |= uint64(n) << 40
		v.tok = append(v.tok, packed)
		i += n
		v.off = append(v.off, int32(i))
	}
	return v
}

// bytesOf returns the byte length of the token range [lo, hi).
func (v side) bytesOf(lo, hi int) int { return int(v.off[hi] - v.off[lo]) }

// strOf returns the source bytes of the token range [lo, hi).
func (v side) strOf(lo, hi int) string { return v.src[v.off[lo]:v.off[hi]] }

// diffRec emits the edit script for a.tok[alo:ahi] vs b.tok[blo:bhi].
func diffRec(a side, alo, ahi int, b side, blo, bhi int, out *delta.Delta) {
	// Trim common prefix.
	p := 0
	for alo+p < ahi && blo+p < bhi && a.tok[alo+p] == b.tok[blo+p] {
		p++
	}
	if p > 0 {
		*out = append(*out, delta.RetainOp(a.bytesOf(alo, alo+p)))
		alo, blo = alo+p, blo+p
	}
	// Trim common suffix.
	s := 0
	for ahi-s > alo && bhi-s > blo && a.tok[ahi-1-s] == b.tok[bhi-1-s] {
		s++
	}
	suffix := a.bytesOf(ahi-s, ahi)
	ahi, bhi = ahi-s, bhi-s

	switch {
	case alo == ahi && blo == bhi:
		// Nothing left.
	case alo == ahi:
		*out = append(*out, delta.InsertOp(b.strOf(blo, bhi)))
	case blo == bhi:
		*out = append(*out, delta.DeleteOp(a.bytesOf(alo, ahi)))
	default:
		sn := middleSnake(a, alo, ahi, b, blo, bhi)
		if sn.d <= 1 {
			// After trimming both ends of two non-empty, non-equal token
			// ranges the edit distance is at least 2, so this branch is
			// defensive: emit a full replacement rather than recurse.
			*out = append(*out, delta.DeleteOp(a.bytesOf(alo, ahi)), delta.InsertOp(b.strOf(blo, bhi)))
		} else {
			diffRec(a, alo, alo+sn.x, b, blo, blo+sn.y, out)
			if sn.u > sn.x {
				*out = append(*out, delta.RetainOp(a.bytesOf(alo+sn.x, alo+sn.u)))
			}
			diffRec(a, alo+sn.u, ahi, b, blo+sn.v, bhi, out)
		}
	}
	if suffix > 0 {
		*out = append(*out, delta.RetainOp(suffix))
	}
}

// snake is a maximal run of matches (x,y)..(u,v) lying on an optimal
// D-path (token coordinates relative to the subproblem), plus the total
// edit distance d of the full subproblem.
type snake struct {
	x, y, u, v, d int
}

// middleSnake finds the middle snake of an optimal edit path between
// a.tok[alo:ahi] and b.tok[blo:bhi] using forward and reverse searches
// that each explore at most half the edit distance (Myers 1986,
// linear-space refinement). Both ranges must be non-empty.
func middleSnake(a side, alo, ahi int, b side, blo, bhi int) snake {
	n, m := ahi-alo, bhi-blo
	maxD := (n + m + 1) / 2
	dlt := n - m
	odd := dlt%2 != 0

	size := 2*maxD + 2
	vf := make([]int, size)
	vb := make([]int, size)
	idx := func(k int) int {
		i := k % size
		if i < 0 {
			i += size
		}
		return i
	}

	for d := 0; d <= maxD; d++ {
		// Forward D-paths.
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && vf[idx(k-1)] < vf[idx(k+1)]) {
				x = vf[idx(k+1)]
			} else {
				x = vf[idx(k-1)] + 1
			}
			y := x - k
			x0, y0 := x, y
			for x < n && y < m && a.tok[alo+x] == b.tok[blo+y] {
				x++
				y++
			}
			vf[idx(k)] = x
			if odd {
				// Overlap with the reverse (d-1)-paths: reverse diagonal
				// kr corresponds to forward diagonal dlt-kr.
				kr := dlt - k
				if kr >= -(d-1) && kr <= d-1 && vf[idx(k)]+vb[idx(kr)] >= n {
					return snake{x: x0, y: y0, u: x, v: y, d: 2*d - 1}
				}
			}
		}
		// Reverse D-paths; x counts tokens consumed from the end of a.
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && vb[idx(k-1)] < vb[idx(k+1)]) {
				x = vb[idx(k+1)]
			} else {
				x = vb[idx(k-1)] + 1
			}
			y := x - k
			x0, y0 := x, y
			for x < n && y < m && a.tok[alo+n-x-1] == b.tok[blo+m-y-1] {
				x++
				y++
			}
			vb[idx(k)] = x
			if !odd {
				kf := dlt - k
				if kf >= -d && kf <= d && vb[idx(k)]+vf[idx(kf)] >= n {
					return snake{x: n - x, y: m - y, u: n - x0, v: m - y0, d: 2 * d}
				}
			}
		}
	}
	// Unreachable for valid inputs; force the defensive replacement path.
	return snake{d: 0}
}
