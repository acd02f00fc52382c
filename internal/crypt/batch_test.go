package crypt

import (
	"bytes"
	"encoding/base32"
	"errors"
	"math/rand"
	"testing"
)

// TestWideRunMatchesPerBlock pins the round-major in-place run API to the
// reference per-block permutation, in both directions, across run lengths
// that cover the empty, single-block, and multi-tile cases.
func TestWideRunMatchesPerBlock(t *testing.T) {
	w, err := NewWidePRP(bytes.Repeat([]byte{0x42}, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2011))
	for _, blocks := range []int{0, 1, 2, 3, 7, 64, 129, 513} {
		src := make([]byte, blocks*WideBlockSize)
		rng.Read(src)

		wantEnc := make([]byte, len(src))
		for off := 0; off < len(src); off += WideBlockSize {
			if err := w.Encrypt(wantEnc[off:off+WideBlockSize], src[off:off+WideBlockSize]); err != nil {
				t.Fatal(err)
			}
		}

		run := append([]byte(nil), src...)
		if err := w.EncryptRun(run); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(run, wantEnc) {
			t.Fatalf("blocks=%d: EncryptRun diverges from per-block Encrypt", blocks)
		}

		if err := w.DecryptRun(run); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(run, src) {
			t.Fatalf("blocks=%d: DecryptRun(EncryptRun(x)) != x", blocks)
		}
	}
}

func TestWideRunRejectsPartialBlock(t *testing.T) {
	w, err := NewWidePRP(make([]byte, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.EncryptRun(make([]byte, WideBlockSize+1)); err == nil {
		t.Error("EncryptRun accepted a partial block")
	}
	if err := w.DecryptRun(make([]byte, WideBlockSize-1)); err == nil {
		t.Error("DecryptRun accepted a partial block")
	}
}

// FuzzWideRunMatchesPerBlock cross-checks the run API against the
// reference permutation on arbitrary block contents.
func FuzzWideRunMatchesPerBlock(f *testing.F) {
	f.Add([]byte("seed"), 3)
	f.Add(bytes.Repeat([]byte{0xA5}, WideBlockSize), 1)
	f.Fuzz(func(t *testing.T, data []byte, blocks int) {
		if blocks < 0 || blocks > 64 {
			return
		}
		w, err := NewWidePRP(bytes.Repeat([]byte{7}, KeySize))
		if err != nil {
			t.Fatal(err)
		}
		src := make([]byte, blocks*WideBlockSize)
		copy(src, data)
		want := make([]byte, len(src))
		for off := 0; off < len(src); off += WideBlockSize {
			w.Encrypt(want[off:off+WideBlockSize], src[off:off+WideBlockSize])
		}
		run := append([]byte(nil), src...)
		if err := w.EncryptRun(run); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(run, want) {
			t.Fatal("EncryptRun diverges from per-block Encrypt")
		}
		if err := w.DecryptRun(run); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(run, src) {
			t.Fatal("DecryptRun is not the inverse of EncryptRun")
		}
	})
}

// referenceDecodeTransport is the pre-batching implementation: lenient
// stdlib decode followed by an O(n)-allocating re-encode comparison. The
// fuzz target below pins the table-driven decoder to it.
func referenceDecodeTransport(s string) ([]byte, error) {
	raw, err := base32.StdEncoding.WithPadding(base32.NoPadding).DecodeString(s)
	if err != nil {
		return nil, err
	}
	if base32.StdEncoding.WithPadding(base32.NoPadding).EncodeToString(raw) != s {
		return nil, errors.New("non-canonical")
	}
	return raw, nil
}

func TestRawLenInvertsTransportLen(t *testing.T) {
	for n := 0; n <= 200; n++ {
		got, ok := RawLen(TransportLen(n))
		if !ok || got != n {
			t.Errorf("RawLen(TransportLen(%d)) = %d,%v", n, got, ok)
		}
	}
	for _, encLen := range []int{-1, 1, 3, 6, 9, 11, 14} {
		if _, ok := RawLen(encLen); ok {
			t.Errorf("RawLen(%d) accepted an impossible length", encLen)
		}
	}
}

// TestTransportCodecZeroAlloc is the allocation-regression gate for the
// transport hot path: encoding into and decoding from caller-owned buffers
// must not allocate.
func TestTransportCodecZeroAlloc(t *testing.T) {
	raw := bytes.Repeat([]byte{0xC3}, 33)
	enc := make([]byte, TransportLen(len(raw)))
	EncodeTransportInto(enc, raw)
	s := string(enc)
	dst := make([]byte, len(raw))

	if n := testing.AllocsPerRun(200, func() {
		EncodeTransportInto(enc, raw)
	}); n != 0 {
		t.Errorf("EncodeTransportInto allocates %v per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := DecodeTransportInto(dst, s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeTransportInto allocates %v per run, want 0", n)
	}
	if !bytes.Equal(dst, raw) {
		t.Fatal("DecodeTransportInto round trip mismatch")
	}
}

// TestWideRunZeroAlloc keeps the batch permutation allocation-free.
func TestWideRunZeroAlloc(t *testing.T) {
	w, err := NewWidePRP(make([]byte, KeySize))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128*WideBlockSize)
	if n := testing.AllocsPerRun(100, func() {
		if err := w.EncryptRun(buf); err != nil {
			t.Fatal(err)
		}
		if err := w.DecryptRun(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("wide run kernels allocate %v per run, want 0", n)
	}
}

func TestFillNoncesSeededMatchesSerial(t *testing.T) {
	a := NewSeededNonceSource(99)
	b := NewSeededNonceSource(99)
	batch := make([]uint64, 1000)
	FillNonces(a, batch)
	for i, got := range batch {
		if want := b.Nonce64(); got != want {
			t.Fatalf("nonce %d: batch %#x, serial %#x", i, got, want)
		}
	}
}

func TestFillNoncesCryptoDrawsDistinct(t *testing.T) {
	batch := make([]uint64, 200)
	FillNonces(CryptoNonceSource{}, batch)
	seen := map[uint64]bool{}
	for _, v := range batch {
		seen[v] = true
	}
	// 200 draws of 64-bit CSPRNG output collide with probability ~2^-51;
	// any repeat here means the chunked reader misindexed its buffer.
	if len(seen) != len(batch) {
		t.Fatalf("crypto batch produced %d distinct values out of %d", len(seen), len(batch))
	}
}

// fallbackOnlySource hides the batch method to exercise FillNonces's
// per-value fallback path.
type fallbackOnlySource struct{ s *SeededNonceSource }

func (f fallbackOnlySource) Nonce64() uint64 { return f.s.Nonce64() }

func TestFillNoncesFallback(t *testing.T) {
	a := fallbackOnlySource{NewSeededNonceSource(7)}
	b := NewSeededNonceSource(7)
	batch := make([]uint64, 50)
	FillNonces(a, batch)
	for i, got := range batch {
		if want := b.Nonce64(); got != want {
			t.Fatalf("nonce %d: fallback %#x, serial %#x", i, got, want)
		}
	}
}
