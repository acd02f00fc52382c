package skiplist

import (
	"errors"
	"math/rand"
	"testing"
)

// refModel is a trivially-correct slice-backed reference used to cross-check
// the skip list in property tests.
type refModel struct {
	values []string
	w1s    []int
	w2s    []int
}

func (m *refModel) insertAt(k int, v string, w1, w2 int) {
	m.values = append(m.values, "")
	copy(m.values[k+1:], m.values[k:])
	m.values[k] = v
	m.w1s = append(m.w1s, 0)
	copy(m.w1s[k+1:], m.w1s[k:])
	m.w1s[k] = w1
	m.w2s = append(m.w2s, 0)
	copy(m.w2s[k+1:], m.w2s[k:])
	m.w2s[k] = w2
}

func (m *refModel) deleteAt(k int) {
	m.values = append(m.values[:k], m.values[k+1:]...)
	m.w1s = append(m.w1s[:k], m.w1s[k+1:]...)
	m.w2s = append(m.w2s[:k], m.w2s[k+1:]...)
}

func (m *refModel) setAt(k int, v string, w1, w2 int) {
	m.values[k] = v
	m.w1s[k] = w1
	m.w2s[k] = w2
}

func (m *refModel) totalW1() int {
	s := 0
	for _, w := range m.w1s {
		s += w
	}
	return s
}

// findPrimary returns ordinal, offset, beforeW1, beforeW2 for primary idx p.
func (m *refModel) findPrimary(p int) (int, int, int, int) {
	b1, b2 := 0, 0
	for i, w := range m.w1s {
		if p < b1+w {
			return i, p - b1, b1, b2
		}
		b1 += w
		b2 += m.w2s[i]
	}
	return -1, 0, 0, 0
}

func TestEmptyList(t *testing.T) {
	l := New[string](1)
	if l.Len() != 0 || l.TotalPrimary() != 0 || l.TotalSecondary() != 0 {
		t.Errorf("empty list reports Len=%d W1=%d W2=%d", l.Len(), l.TotalPrimary(), l.TotalSecondary())
	}
	if _, err := l.FindOrdinal(0); !errors.Is(err, ErrIndexRange) {
		t.Errorf("FindOrdinal on empty = %v, want ErrIndexRange", err)
	}
	if _, err := l.FindPrimary(0); !errors.Is(err, ErrIndexRange) {
		t.Errorf("FindPrimary on empty = %v, want ErrIndexRange", err)
	}
	if _, _, _, err := l.DeleteAt(0); !errors.Is(err, ErrIndexRange) {
		t.Errorf("DeleteAt on empty = %v, want ErrIndexRange", err)
	}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate empty: %v", err)
	}
}

func TestPaperFigure3Insertion(t *testing.T) {
	// Figure 3: insert "xy" at index 3 of "abcfghijk" (as 1-char blocks).
	l := New[string](7)
	doc := "abcfghijk"
	for i, c := range doc {
		if err := l.InsertAt(i, string(c), 1, 2); err != nil {
			t.Fatalf("InsertAt(%d): %v", i, err)
		}
	}
	// Find index 3 to locate the insertion ordinal, then insert a block.
	pos, err := l.FindPrimary(3)
	if err != nil {
		t.Fatalf("FindPrimary(3): %v", err)
	}
	if pos.Value != "f" || pos.Offset != 0 {
		t.Fatalf("FindPrimary(3) = %q offset %d, want \"f\" offset 0", pos.Value, pos.Offset)
	}
	if err := l.InsertAt(pos.Ordinal, "xy", 2, 4); err != nil {
		t.Fatalf("InsertAt: %v", err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Resulting sequence must read "abc" "xy" "fghijk".
	var got string
	if err := l.Each(0, func(_ int, v string, _, _ int) bool {
		got += v
		return true
	}); err != nil {
		t.Fatalf("Each: %v", err)
	}
	if got != "abcxyfghijk" {
		t.Errorf("after insertion document = %q, want %q", got, "abcxyfghijk")
	}
	if l.TotalPrimary() != 11 {
		t.Errorf("TotalPrimary = %d, want 11", l.TotalPrimary())
	}
	if l.TotalSecondary() != 22 {
		t.Errorf("TotalSecondary = %d, want 22", l.TotalSecondary())
	}
}

func TestAlgorithm1FindSemantics(t *testing.T) {
	// Blocks of varying width; Find must return the containing block and
	// in-block offset exactly as the paper's Algorithm 1 (value[index]).
	l := New[string](3)
	blocks := []struct {
		v  string
		w2 int
	}{
		{"ab", 16}, {"cde", 16}, {"f", 16}, {"ghij", 32},
	}
	for i, b := range blocks {
		if err := l.InsertAt(i, b.v, len(b.v), b.w2); err != nil {
			t.Fatalf("InsertAt: %v", err)
		}
	}
	full := "abcdefghij"
	for p := 0; p < len(full); p++ {
		pos, err := l.FindPrimary(p)
		if err != nil {
			t.Fatalf("FindPrimary(%d): %v", p, err)
		}
		if pos.Value[pos.Offset] != full[p] {
			t.Errorf("FindPrimary(%d): block %q offset %d yields %q, want %q",
				p, pos.Value, pos.Offset, pos.Value[pos.Offset], full[p])
		}
		if pos.BeforeW1 > p || pos.BeforeW1+pos.W1 <= p {
			t.Errorf("FindPrimary(%d): BeforeW1 %d W1 %d does not bracket p", p, pos.BeforeW1, pos.W1)
		}
	}
	// Secondary prefix sums: before block 3 ("ghij"), 3 blocks × 16 units.
	pos, err := l.FindPrimary(7)
	if err != nil {
		t.Fatalf("FindPrimary(7): %v", err)
	}
	if pos.BeforeW2 != 48 {
		t.Errorf("BeforeW2 at block 3 = %d, want 48", pos.BeforeW2)
	}
}

func TestInsertAtEnds(t *testing.T) {
	l := New[string](11)
	if err := l.InsertAt(0, "m", 1, 1); err != nil {
		t.Fatalf("first insert: %v", err)
	}
	if err := l.InsertAt(0, "f", 1, 1); err != nil {
		t.Fatalf("front insert: %v", err)
	}
	if err := l.InsertAt(2, "b", 1, 1); err != nil {
		t.Fatalf("back insert: %v", err)
	}
	want := []string{"f", "m", "b"}
	for i, w := range want {
		pos, err := l.FindOrdinal(i)
		if err != nil {
			t.Fatalf("FindOrdinal(%d): %v", i, err)
		}
		if pos.Value != w {
			t.Errorf("ordinal %d = %q, want %q", i, pos.Value, w)
		}
	}
	if err := l.InsertAt(5, "x", 1, 1); !errors.Is(err, ErrIndexRange) {
		t.Errorf("InsertAt(5) on len-3 list = %v, want ErrIndexRange", err)
	}
	if err := l.InsertAt(-1, "x", 1, 1); !errors.Is(err, ErrIndexRange) {
		t.Errorf("InsertAt(-1) = %v, want ErrIndexRange", err)
	}
	if err := l.InsertAt(0, "x", -1, 1); !errors.Is(err, ErrIndexRange) {
		t.Errorf("InsertAt with negative weight = %v, want ErrIndexRange", err)
	}
}

func TestDeleteAll(t *testing.T) {
	l := New[int](13)
	const n = 200
	for i := 0; i < n; i++ {
		if err := l.InsertAt(i, i, 1, 1); err != nil {
			t.Fatalf("InsertAt: %v", err)
		}
	}
	// Delete from the middle outward.
	for l.Len() > 0 {
		k := l.Len() / 2
		want, err := l.FindOrdinal(k)
		if err != nil {
			t.Fatalf("FindOrdinal: %v", err)
		}
		got, w1, w2, err := l.DeleteAt(k)
		if err != nil {
			t.Fatalf("DeleteAt: %v", err)
		}
		if got != want.Value || w1 != 1 || w2 != 1 {
			t.Fatalf("DeleteAt(%d) = (%d,%d,%d), want (%d,1,1)", k, got, w1, w2, want.Value)
		}
	}
	if l.TotalPrimary() != 0 || l.TotalSecondary() != 0 {
		t.Errorf("totals after delete-all: %d, %d", l.TotalPrimary(), l.TotalSecondary())
	}
	if err := l.Validate(); err != nil {
		t.Errorf("Validate after delete-all: %v", err)
	}
}

func TestSetAtAdjustsWeights(t *testing.T) {
	l := New[string](17)
	for i := 0; i < 50; i++ {
		if err := l.InsertAt(i, "aaaa", 4, 16); err != nil {
			t.Fatalf("InsertAt: %v", err)
		}
	}
	if err := l.SetAt(20, "aa", 2, 16); err != nil {
		t.Fatalf("SetAt: %v", err)
	}
	if l.TotalPrimary() != 4*49+2 {
		t.Errorf("TotalPrimary = %d, want %d", l.TotalPrimary(), 4*49+2)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate after SetAt: %v", err)
	}
	pos, err := l.FindOrdinal(20)
	if err != nil {
		t.Fatalf("FindOrdinal: %v", err)
	}
	if pos.Value != "aa" || pos.W1 != 2 {
		t.Errorf("element 20 = %q w1=%d, want \"aa\" w1=2", pos.Value, pos.W1)
	}
	// Primary index 80 = block 20 starts at 4*20=80 before the edit; after
	// shrinking block 20 to 2 chars, index 81 is its last char.
	pos, err = l.FindPrimary(81)
	if err != nil {
		t.Fatalf("FindPrimary: %v", err)
	}
	if pos.Ordinal != 20 || pos.Offset != 1 {
		t.Errorf("FindPrimary(81) = ordinal %d offset %d, want 20/1", pos.Ordinal, pos.Offset)
	}
	if err := l.SetAt(50, "x", 1, 1); !errors.Is(err, ErrIndexRange) {
		t.Errorf("SetAt out of range = %v, want ErrIndexRange", err)
	}
}

func TestEachEarlyStopAndOffsets(t *testing.T) {
	l := New[int](19)
	for i := 0; i < 10; i++ {
		if err := l.InsertAt(i, i*i, 1, 1); err != nil {
			t.Fatalf("InsertAt: %v", err)
		}
	}
	var seen []int
	if err := l.Each(4, func(k int, v int, _, _ int) bool {
		seen = append(seen, k)
		return len(seen) < 3
	}); err != nil {
		t.Fatalf("Each: %v", err)
	}
	if len(seen) != 3 || seen[0] != 4 || seen[2] != 6 {
		t.Errorf("Each visited %v, want [4 5 6]", seen)
	}
	if err := l.Each(11, func(int, int, int, int) bool { return true }); !errors.Is(err, ErrIndexRange) {
		t.Errorf("Each(11) = %v, want ErrIndexRange", err)
	}
	// Each starting exactly at Len() visits nothing but is legal.
	count := 0
	if err := l.Each(10, func(int, int, int, int) bool { count++; return true }); err != nil {
		t.Fatalf("Each(len): %v", err)
	}
	if count != 0 {
		t.Errorf("Each(len) visited %d elements", count)
	}
}

func TestZeroWeightElements(t *testing.T) {
	// Elements with zero primary weight (e.g. a metadata block) must not
	// break FindPrimary: the search should land on the weighted block.
	l := New[string](23)
	if err := l.InsertAt(0, "meta", 0, 8); err != nil {
		t.Fatalf("InsertAt meta: %v", err)
	}
	if err := l.InsertAt(1, "abc", 3, 8); err != nil {
		t.Fatalf("InsertAt abc: %v", err)
	}
	pos, err := l.FindPrimary(0)
	if err != nil {
		t.Fatalf("FindPrimary: %v", err)
	}
	if pos.Value != "abc" {
		t.Errorf("FindPrimary(0) = %q, want %q", pos.Value, "abc")
	}
	if pos.BeforeW2 != 8 {
		t.Errorf("BeforeW2 = %d, want 8 (skips the meta block)", pos.BeforeW2)
	}
}

// checkPrimary requires FindPrimary(p) to agree with the reference model.
func checkPrimary(t *testing.T, l *List[string], ref *refModel, p int) {
	t.Helper()
	pos, err := l.FindPrimary(p)
	if err != nil {
		t.Fatalf("FindPrimary(%d): %v", p, err)
	}
	wantOrd, wantOff, wantB1, wantB2 := ref.findPrimary(p)
	if pos.Ordinal != wantOrd || pos.Offset != wantOff || pos.BeforeW1 != wantB1 || pos.BeforeW2 != wantB2 ||
		pos.Value != ref.values[wantOrd] || pos.W1 != ref.w1s[wantOrd] || pos.W2 != ref.w2s[wantOrd] {
		t.Fatalf("FindPrimary(%d) = (ord %d, off %d, b1 %d, b2 %d), ref (%d,%d,%d,%d)",
			p, pos.Ordinal, pos.Offset, pos.BeforeW1, pos.BeforeW2, wantOrd, wantOff, wantB1, wantB2)
	}
}

// TestRandomOpsAgainstReference interleaves inserts, deletes and weight
// updates (zero primary weights included) with positional and ordinal
// seeks, checking every seek against the slice model as it happens. Most
// positional seeks land just after the previous one, the pattern of
// sequential typing.
func TestRandomOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	l := New[string](31)
	ref := &refModel{}
	const ops = 6000
	last := 0
	for op := 0; op < ops; op++ {
		switch action := rng.Intn(14); {
		case action < 5 || l.Len() == 0: // insert
			k := rng.Intn(l.Len() + 1)
			w1 := rng.Intn(9)
			w2 := 1 + rng.Intn(40)
			v := string(rune('a' + rng.Intn(26)))
			if err := l.InsertAt(k, v, w1, w2); err != nil {
				t.Fatalf("op %d InsertAt(%d): %v", op, k, err)
			}
			ref.insertAt(k, v, w1, w2)
		case action < 8: // delete
			k := rng.Intn(l.Len())
			v, w1, w2, err := l.DeleteAt(k)
			if err != nil {
				t.Fatalf("op %d DeleteAt(%d): %v", op, k, err)
			}
			if v != ref.values[k] || w1 != ref.w1s[k] || w2 != ref.w2s[k] {
				t.Fatalf("op %d DeleteAt(%d) = (%q,%d,%d), ref (%q,%d,%d)",
					op, k, v, w1, w2, ref.values[k], ref.w1s[k], ref.w2s[k])
			}
			ref.deleteAt(k)
		case action < 10: // set
			k := rng.Intn(l.Len())
			w1 := rng.Intn(9)
			w2 := 1 + rng.Intn(40)
			v := string(rune('A' + rng.Intn(26)))
			if err := l.SetAt(k, v, w1, w2); err != nil {
				t.Fatalf("op %d SetAt(%d): %v", op, k, err)
			}
			ref.setAt(k, v, w1, w2)
		case action < 12: // primary seek, usually local to the last one
			if total := ref.totalW1(); total > 0 {
				p := rng.Intn(total)
				if rng.Intn(2) == 0 {
					p = min(last+rng.Intn(32), total-1)
				}
				checkPrimary(t, l, ref, p)
				last = p
			}
		default: // ordinal seek
			k := rng.Intn(l.Len())
			pos, err := l.FindOrdinal(k)
			if err != nil {
				t.Fatalf("op %d FindOrdinal(%d): %v", op, k, err)
			}
			if pos.Value != ref.values[k] || pos.W1 != ref.w1s[k] || pos.W2 != ref.w2s[k] {
				t.Fatalf("op %d FindOrdinal(%d) = (%q,%d,%d), ref (%q,%d,%d)",
					op, k, pos.Value, pos.W1, pos.W2, ref.values[k], ref.w1s[k], ref.w2s[k])
			}
		}
		if op%200 == 0 {
			if err := l.Validate(); err != nil {
				t.Fatalf("op %d Validate: %v", op, err)
			}
		}
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("final Validate: %v", err)
	}
	// Cross-check every FindOrdinal and a sample of FindPrimary lookups.
	if l.Len() != len(ref.values) {
		t.Fatalf("length %d, ref %d", l.Len(), len(ref.values))
	}
	for k := 0; k < l.Len(); k++ {
		pos, err := l.FindOrdinal(k)
		if err != nil {
			t.Fatalf("FindOrdinal(%d): %v", k, err)
		}
		if pos.Value != ref.values[k] || pos.W1 != ref.w1s[k] || pos.W2 != ref.w2s[k] {
			t.Fatalf("FindOrdinal(%d) = (%q,%d,%d), ref (%q,%d,%d)",
				k, pos.Value, pos.W1, pos.W2, ref.values[k], ref.w1s[k], ref.w2s[k])
		}
	}
	total := ref.totalW1()
	if l.TotalPrimary() != total {
		t.Fatalf("TotalPrimary %d, ref %d", l.TotalPrimary(), total)
	}
	// Every primary position, left to right and back.
	for p := 0; p < total; p++ {
		checkPrimary(t, l, ref, p)
	}
	for p := total - 1; p >= 0; p-- {
		checkPrimary(t, l, ref, p)
	}
}

func TestDeterministicStructure(t *testing.T) {
	build := func(seed uint64) string {
		l := New[int](seed)
		for i := 0; i < 64; i++ {
			if err := l.InsertAt(i, i, 1, 1); err != nil {
				t.Fatalf("InsertAt: %v", err)
			}
		}
		return l.String()
	}
	if build(5) != build(5) {
		t.Error("same seed produced different structures")
	}
	if build(5) == build(6) {
		t.Error("different seeds produced identical structures (suspicious)")
	}
}

func TestLogarithmicHeight(t *testing.T) {
	l := New[int](41)
	const n = 4096
	for i := 0; i < n; i++ {
		if err := l.InsertAt(i, i, 1, 1); err != nil {
			t.Fatalf("InsertAt: %v", err)
		}
	}
	// Expected height ~ log2(4096) = 12; allow generous slack.
	if l.level > 26 {
		t.Errorf("level = %d for n = %d, want O(log n)", l.level, n)
	}
}

func BenchmarkFindPrimary(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 14} {
		l := New[int](43)
		for i := 0; i < n; i++ {
			if err := l.InsertAt(i, i, 8, 16); err != nil {
				b.Fatalf("InsertAt: %v", err)
			}
		}
		rng := rand.New(rand.NewSource(7))
		b.Run(itoa(n), func(b *testing.B) {
			total := l.TotalPrimary()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.FindPrimary(rng.Intn(total)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	l := New[int](47)
	for i := 0; i < 1<<14; i++ {
		if err := l.InsertAt(i, i, 8, 16); err != nil {
			b.Fatalf("InsertAt: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(l.Len())
		if err := l.InsertAt(k, i, 8, 16); err != nil {
			b.Fatal(err)
		}
		if _, _, _, err := l.DeleteAt(rng.Intn(l.Len())); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
