package rpcmode

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"privedit/internal/blockdoc"
	"privedit/internal/crypt"
)

func kernelKey() []byte {
	key := make([]byte, crypt.KeySize)
	for i := range key {
		key[i] = byte(i * 3)
	}
	return key
}

// kernelChunks builds n deterministic chunks, mixing full and short blocks.
func kernelChunks(n int) [][]byte {
	chunks := make([][]byte, n)
	for i := range chunks {
		size := maxChars
		if i%17 == 0 {
			size = 1 + i%maxChars
		}
		ch := make([]byte, size)
		for j := range ch {
			ch[j] = byte('a' + (i+j)%26)
		}
		chunks[i] = ch
	}
	return chunks
}

// kernelSizes cover the 0- and 1-block calls every keystroke splice
// makes, small multi-block splices, and whole documents of thousands of
// blocks that end mid-tile and on a 128-record tile boundary.
var kernelSizes = []int{0, 1, 2, 5, 2047, 2048, 4096}

// codecPair returns the kernel codec and the oracle codec, keyed and
// seeded identically.
func codecPair(t *testing.T, seed uint64) (kernel, oracle *Codec) {
	t.Helper()
	var err error
	if kernel, err = New(kernelKey(), crypt.NewSeededNonceSource(seed)); err != nil {
		t.Fatal(err)
	}
	if oracle, err = New(kernelKey(), crypt.NewSeededNonceSource(seed)); err != nil {
		t.Fatal(err)
	}
	return kernel, oracle
}

// sameBlocks fails unless got and want carry identical records, nonces
// and characters.
func sameBlocks(t *testing.T, what string, got, want []*blockdoc.Block) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, oracle %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Record, want[i].Record) {
			t.Fatalf("%s: record %d diverges from the oracle", what, i)
		}
		if got[i].Nonce != want[i].Nonce {
			t.Fatalf("%s: nonce %d diverges from the oracle", what, i)
		}
		if !bytes.Equal(got[i].Chars, want[i].Chars) {
			t.Fatalf("%s: chars %d diverge from the oracle", what, i)
		}
	}
}

// TestKernelCiphertextEquality pins the tiled arena kernel to the
// per-block oracle: EncryptAll yields the same start block, records,
// nonces and checksum trailer, DecryptAll the same blocks and ring state,
// and a corrupt record the same error naming the same record.
func TestKernelCiphertextEquality(t *testing.T) {
	for _, n := range kernelSizes {
		chunks := kernelChunks(n)
		kernel, oracle := codecPair(t, 99)
		prefix, blocks, trailer, err := kernel.EncryptAll(chunks)
		if err != nil {
			t.Fatalf("n=%d: EncryptAll: %v", n, err)
		}
		wantPrefix, wantBlocks, wantTrailer, err := oracle.oracleEncryptAll(chunks)
		if err != nil {
			t.Fatalf("n=%d: oracle EncryptAll: %v", n, err)
		}
		if !bytes.Equal(prefix, wantPrefix) || !bytes.Equal(trailer, wantTrailer) {
			t.Fatalf("n=%d: prefix/trailer diverge from the oracle", n)
		}
		sameBlocks(t, fmt.Sprintf("n=%d EncryptAll", n), blocks, wantBlocks)

		records := make([][]byte, n)
		for i, b := range blocks {
			records[i] = b.Record
		}
		got, err := kernel.DecryptAll(prefix, records, trailer)
		if err != nil {
			t.Fatalf("n=%d: DecryptAll: %v", n, err)
		}
		want, err := oracle.oracleDecryptAll(prefix, records, trailer)
		if err != nil {
			t.Fatalf("n=%d: oracle DecryptAll: %v", n, err)
		}
		sameBlocks(t, fmt.Sprintf("n=%d DecryptAll", n), got, want)
		if kernel.snapshot() != oracle.snapshot() {
			t.Fatalf("n=%d: ring state diverges from the oracle", n)
		}

		if n == 0 {
			continue
		}
		bad := n * 2 / 3
		flipped := append([]byte(nil), records[bad]...)
		flipped[5] ^= 0x40
		records[bad] = flipped
		_, gotErr := kernel.DecryptAll(prefix, records, trailer)
		_, wantErr := oracle.oracleDecryptAll(prefix, records, trailer)
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("n=%d: corrupt record error %v, oracle %v", n, gotErr, wantErr)
		}
		if !strings.Contains(gotErr.Error(), fmt.Sprintf("record %d ", bad)) {
			t.Fatalf("n=%d: corrupt record error %q does not name record %d", n, gotErr, bad)
		}
	}
}

// TestSpliceCiphertextEquality extends the oracle pin to the incremental
// path: after identical whole-document encryptions, Splice adds the same
// records and nonces as the oracle and rewrites the same left neighbor (or
// start block, at the document head) and checksum trailer.
func TestSpliceCiphertextEquality(t *testing.T) {
	for _, head := range []bool{false, true} {
		for _, n := range kernelSizes {
			kernel, oracle := codecPair(t, 42)
			_, blocks, _, err := kernel.EncryptAll(kernelChunks(3))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := oracle.oracleEncryptAll(kernelChunks(3)); err != nil {
				t.Fatal(err)
			}
			left, removed := blocks[0], blocks[1:2]
			if head {
				left, removed = nil, blocks[:2]
			}
			chunks := kernelChunks(n)
			added, newLeft, newPrefix, newTrailer, err := kernel.Splice(left, removed, chunks, blocks[2])
			if err != nil {
				t.Fatalf("head=%v n=%d: Splice: %v", head, n, err)
			}
			want, wantLeft, wantPrefix, wantTrailer, err := oracle.oracleSplice(left, removed, chunks, blocks[2])
			if err != nil {
				t.Fatalf("head=%v n=%d: oracle Splice: %v", head, n, err)
			}
			if !bytes.Equal(newLeft, wantLeft) || !bytes.Equal(newPrefix, wantPrefix) || !bytes.Equal(newTrailer, wantTrailer) {
				t.Fatalf("head=%v n=%d: spliced neighbor/prefix/trailer diverge from the oracle", head, n)
			}
			sameBlocks(t, fmt.Sprintf("head=%v n=%d Splice", head, n), added, want)
			if kernel.snapshot() != oracle.snapshot() {
				t.Fatalf("head=%v n=%d: ring state diverges from the oracle", head, n)
			}
		}
	}
}

// TestBatchedKernelAllocsBounded pins the arena design: the kernels
// allocate a small per-call constant, not O(blocks). The per-block oracle
// allocates ~3 per block (>12000 here), so the bounds below fail loudly if
// per-block makes creep back in. The one-block Splice is the typing hot
// path.
func TestBatchedKernelAllocsBounded(t *testing.T) {
	const n = 4096
	chunks := kernelChunks(n)
	c, err := New(kernelKey(), crypt.NewSeededNonceSource(7))
	if err != nil {
		t.Fatal(err)
	}
	var prefix, trailer []byte
	var blocks []*blockdoc.Block
	encAllocs := testing.AllocsPerRun(5, func() {
		prefix, blocks, trailer, err = c.EncryptAll(chunks)
		if err != nil {
			t.Fatal(err)
		}
	})
	records := make([][]byte, len(blocks))
	for i, b := range blocks {
		records[i] = b.Record
	}
	decAllocs := testing.AllocsPerRun(5, func() {
		if _, err := c.DecryptAll(prefix, records, trailer); err != nil {
			t.Fatal(err)
		}
	})
	// Splice consumes only the nonces and characters of its arguments, so
	// replaying the same one-block replacement keeps the ring consistent
	// enough for an allocation count.
	one := chunks[:1]
	spliceAllocs := testing.AllocsPerRun(20, func() {
		if _, _, _, _, err := c.Splice(blocks[0], blocks[1:2], one, blocks[2]); err != nil {
			t.Fatal(err)
		}
	})
	// ~10 arena/bookkeeping allocations; 64 leaves headroom for runtime
	// variation while staying 2 orders of magnitude below a per-block
	// regression.
	if encAllocs > 64 {
		t.Errorf("EncryptAll: %.0f allocs for %d blocks, want <= 64", encAllocs, n)
	}
	if decAllocs > 64 {
		t.Errorf("DecryptAll: %.0f allocs for %d blocks, want <= 64", decAllocs, n)
	}
	if spliceAllocs > 12 {
		t.Errorf("one-block Splice: %.0f allocs, want <= 12", spliceAllocs)
	}
}

// TestConcurrentCodecCalls pins the codec mutex under -race: one codec
// instance used by concurrent whole-document calls must not corrupt either
// result (the ring state is computed per call and published under the
// mutex, never read mid-kernel).
func TestConcurrentCodecCalls(t *testing.T) {
	c, err := New(kernelKey(), crypt.CryptoNonceSource{})
	if err != nil {
		t.Fatal(err)
	}
	chunks := kernelChunks(2100)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				prefix, blocks, trailer, err := c.EncryptAll(chunks)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d: EncryptAll: %w", g, err)
					return
				}
				records := make([][]byte, len(blocks))
				for i, b := range blocks {
					records[i] = b.Record
				}
				// A fresh codec proves the result is a self-consistent ring
				// no matter how the shared codec's state moved meanwhile.
				dec, err := New(kernelKey(), crypt.CryptoNonceSource{})
				if err != nil {
					errc <- err
					return
				}
				got, err := dec.DecryptAll(prefix, records, trailer)
				if err != nil {
					errc <- fmt.Errorf("goroutine %d: DecryptAll: %w", g, err)
					return
				}
				for i := range got {
					if !bytes.Equal(got[i].Chars, chunks[i]) {
						errc <- fmt.Errorf("goroutine %d: block %d corrupted", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}
