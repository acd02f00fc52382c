package skiplist

import (
	"fmt"
	"math/rand"
	"testing"
)

// modelList drives a skip list and the slice model through the same
// operations, checking every mutation's result and every seek against the
// model as it happens.
type modelList struct {
	l   *List[string]
	ref *refModel
}

func newModelList(seed uint64) *modelList {
	return &modelList{l: New[string](seed), ref: &refModel{}}
}

func (m *modelList) insert(t *testing.T, k int, v string, w1, w2 int) {
	t.Helper()
	if err := m.l.InsertAt(k, v, w1, w2); err != nil {
		t.Fatalf("InsertAt(%d): %v", k, err)
	}
	m.ref.insertAt(k, v, w1, w2)
}

func (m *modelList) delete(t *testing.T, k int) {
	t.Helper()
	v, w1, w2, err := m.l.DeleteAt(k)
	if err != nil {
		t.Fatalf("DeleteAt(%d): %v", k, err)
	}
	if v != m.ref.values[k] || w1 != m.ref.w1s[k] || w2 != m.ref.w2s[k] {
		t.Fatalf("DeleteAt(%d) = (%q,%d,%d), ref (%q,%d,%d)",
			k, v, w1, w2, m.ref.values[k], m.ref.w1s[k], m.ref.w2s[k])
	}
	m.ref.deleteAt(k)
}

func (m *modelList) set(t *testing.T, k int, v string, w1, w2 int) {
	t.Helper()
	if err := m.l.SetAt(k, v, w1, w2); err != nil {
		t.Fatalf("SetAt(%d): %v", k, err)
	}
	m.ref.setAt(k, v, w1, w2)
}

func (m *modelList) seekPrimary(t *testing.T, p int) {
	t.Helper()
	checkPrimary(t, m.l, m.ref, p)
}

func (m *modelList) seekOrdinal(t *testing.T, k int) {
	t.Helper()
	pos, err := m.l.FindOrdinal(k)
	if err != nil {
		t.Fatalf("FindOrdinal(%d): %v", k, err)
	}
	b1, b2 := 0, 0
	for i := 0; i < k; i++ {
		b1 += m.ref.w1s[i]
		b2 += m.ref.w2s[i]
	}
	if pos.Ordinal != k || pos.Value != m.ref.values[k] || pos.W1 != m.ref.w1s[k] || pos.W2 != m.ref.w2s[k] ||
		pos.BeforeW1 != b1 || pos.BeforeW2 != b2 {
		t.Fatalf("FindOrdinal(%d) = (ord %d, %q,%d,%d, b1 %d, b2 %d), ref (%q,%d,%d, b1 %d, b2 %d)",
			k, pos.Ordinal, pos.Value, pos.W1, pos.W2, pos.BeforeW1, pos.BeforeW2,
			m.ref.values[k], m.ref.w1s[k], m.ref.w2s[k], b1, b2)
	}
}

func (m *modelList) validate(t *testing.T) {
	t.Helper()
	if err := m.l.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.l.Len() != len(m.ref.values) || m.l.TotalPrimary() != m.ref.totalW1() {
		t.Fatalf("Len %d / TotalPrimary %d, ref %d / %d",
			m.l.Len(), m.l.TotalPrimary(), len(m.ref.values), m.ref.totalW1())
	}
}

// TestSequentialSeeksAgainstReference scans every primary position of a
// list with mixed block widths left to right and back, the seek pattern
// of sequential typing and of a whole-document walk.
func TestSequentialSeeksAgainstReference(t *testing.T) {
	m := newModelList(7)
	for i := 0; i < 300; i++ {
		m.insert(t, i, fmt.Sprint(i), 1+i%8, 52)
	}
	total := m.l.TotalPrimary()
	for p := 0; p < total; p++ {
		m.seekPrimary(t, p)
	}
	for p := total - 1; p >= 0; p-- {
		m.seekPrimary(t, p)
	}
	m.validate(t)
}

// TestSeekAfterEditEdges seeks around ordinal 32, mutates the list just
// before, at or just after that ordinal, and seeks the same neighbourhood
// again: a mutation must shift exactly the positions at and after it.
func TestSeekAfterEditEdges(t *testing.T) {
	for _, mutate := range []string{"insert-before", "insert-at", "insert-after",
		"delete-before", "delete-at", "delete-after",
		"set-before", "set-at", "set-after"} {
		m := newModelList(11)
		for i := 0; i < 64; i++ {
			m.insert(t, i, fmt.Sprint(i), 4, 52)
		}
		// Ordinal 32 covers primary 128..131.
		m.seekPrimary(t, 130)
		switch mutate {
		case "insert-before":
			m.insert(t, 10, "x", 3, 52)
		case "insert-at":
			m.insert(t, 32, "x", 3, 52)
		case "insert-after":
			m.insert(t, 40, "x", 3, 52)
		case "delete-before":
			m.delete(t, 10)
		case "delete-at":
			m.delete(t, 32)
		case "delete-after":
			m.delete(t, 40)
		case "set-before":
			m.set(t, 10, "x", 7, 52)
		case "set-at":
			m.set(t, 32, "x", 7, 52)
		case "set-after":
			m.set(t, 40, "x", 7, 52)
		}
		total := m.l.TotalPrimary()
		for _, p := range []int{0, 125, 128, 130, 131, 140, total - 1} {
			if p >= 0 && p < total {
				m.seekPrimary(t, p)
			}
		}
		for _, k := range []int{9, 10, 11, 31, 32, 33, 40, m.l.Len() - 1} {
			m.seekOrdinal(t, k)
		}
		m.validate(t)
	}
}

// TestRandomSeeksAgainstReference is a long random interleaving of
// inserts, deletes and weight updates with seeks, weighted toward seeks.
// Primary weights include zero and secondary weights are 0, 26 or 52, so
// empty blocks and zero-length records sit between the seek targets; half
// of the positional seeks land within 32 positions of the previous one.
func TestRandomSeeksAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2011))
	m := newModelList(13)
	last := 0
	for step := 0; step < 20_000; step++ {
		n := m.l.Len()
		switch op := rng.Intn(10); {
		case op < 3 || n == 0: // insert
			m.insert(t, rng.Intn(n+1), fmt.Sprint(step), rng.Intn(9), rng.Intn(3)*26)
		case op < 4: // delete
			m.delete(t, rng.Intn(n))
		case op < 5: // set
			m.set(t, rng.Intn(n), fmt.Sprint(step), rng.Intn(9), rng.Intn(3)*26)
		case op < 8: // primary seek, biased local around the last one
			if total := m.l.TotalPrimary(); total > 0 {
				p := rng.Intn(total)
				if rng.Intn(2) == 0 {
					p = min(last+rng.Intn(32), total-1)
				}
				m.seekPrimary(t, p)
				last = p
			}
		default: // ordinal seek
			m.seekOrdinal(t, rng.Intn(n))
		}
		if step%1000 == 0 {
			m.validate(t)
		}
	}
	m.validate(t)
}

// FuzzOpsAgainstReference drives the list from a fuzz-provided op tape,
// checking each seek against the slice model. Each byte pair is one
// operation.
func FuzzOpsAgainstReference(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 4, 0, 0, 1, 4, 1, 2, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 4, 3, 3, 1, 4, 0, 1, 1})
	f.Fuzz(func(t *testing.T, tape []byte) {
		m := newModelList(17)
		for i := 0; i+1 < len(tape); i += 2 {
			op, arg := tape[i]%5, int(tape[i+1])
			n := m.l.Len()
			switch op {
			case 0: // insert
				m.insert(t, arg%(n+1), fmt.Sprint(i), 1+arg%8, 52)
			case 1: // delete
				if n > 0 {
					m.delete(t, arg%n)
				}
			case 2: // set
				if n > 0 {
					m.set(t, arg%n, fmt.Sprint(i), 1+arg%8, 52)
				}
			case 3: // ordinal seek
				if n > 0 {
					m.seekOrdinal(t, arg%n)
				}
			default: // primary seek
				if total := m.l.TotalPrimary(); total > 0 {
					m.seekPrimary(t, arg%total)
				}
			}
		}
		m.validate(t)
	})
}
