package crypt

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"
)

// NonceSize is the nonce length in bytes. The paper fixes nonces at
// 64 bits (§VI-A: an attacker must search 2^64 r0 values × 2^128 keys).
const NonceSize = 8

// NonceSource produces the 64-bit random nonces that pad and chain
// ciphertext blocks. Implementations must be safe for concurrent use.
type NonceSource interface {
	// Nonce64 returns the next 64-bit nonce.
	Nonce64() uint64
}

// NonceBatcher is an optional NonceSource extension for bulk draws. The
// Enc kernels need one nonce per block; drawing them through a single
// call amortizes the per-draw cost (a getrandom syscall for the CSPRNG
// source, a mutex acquisition for the seeded one) across the run.
// Implementations must produce exactly the sequence that len(dst)
// consecutive Nonce64 calls would, so a batched draw and per-block draws
// stay byte-identical.
type NonceBatcher interface {
	// Nonce64Batch fills dst with the next len(dst) nonces.
	Nonce64Batch(dst []uint64)
}

// FillNonces fills dst with len(dst) nonces from src, using the bulk path
// when src implements NonceBatcher and falling back to per-value Nonce64
// calls otherwise.
func FillNonces(src NonceSource, dst []uint64) {
	if b, ok := src.(NonceBatcher); ok {
		b.Nonce64Batch(dst)
		return
	}
	for i := range dst {
		dst[i] = src.Nonce64()
	}
}

// CryptoNonceSource draws nonces from crypto/rand. It is the source used
// outside of tests.
type CryptoNonceSource struct{}

// Nonce64 returns 8 bytes from the operating system CSPRNG.
func (CryptoNonceSource) Nonce64() uint64 {
	var b [NonceSize]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure means no secure randomness exists at all;
		// every encryption from here would be unsafe.
		panic(fmt.Sprintf("crypt: crypto/rand failed: %v", err))
	}
	return binary.BigEndian.Uint64(b[:])
}

// Nonce64Batch fills dst drawing up to 32 KiB of entropy per crypto/rand
// read instead of 8 bytes, cutting the read count 4096x on large
// documents. CSPRNG output is i.i.d., so chunking cannot change the
// distribution relative to per-value draws.
func (CryptoNonceSource) Nonce64Batch(dst []uint64) {
	var buf [4096 * NonceSize]byte
	for len(dst) > 0 {
		n := len(dst)
		if n > 4096 {
			n = 4096
		}
		if _, err := rand.Read(buf[:n*NonceSize]); err != nil {
			panic(fmt.Sprintf("crypt: crypto/rand failed: %v", err))
		}
		for i := 0; i < n; i++ {
			dst[i] = binary.BigEndian.Uint64(buf[i*NonceSize:])
		}
		dst = dst[n:]
	}
}

// SeededNonceSource is a deterministic nonce source for tests and
// reproducible benchmarks. It is NOT cryptographically secure: it produces
// a fixed, seed-determined sequence using SplitMix64.
type SeededNonceSource struct {
	mu    sync.Mutex
	state uint64
}

// NewSeededNonceSource returns a deterministic source seeded with seed.
func NewSeededNonceSource(seed uint64) *SeededNonceSource {
	return &SeededNonceSource{state: seed}
}

// Nonce64 returns the next value of the SplitMix64 sequence.
func (s *SeededNonceSource) Nonce64() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

// Nonce64Batch fills dst with the next len(dst) values of the sequence
// under a single lock acquisition — the identical sequence len(dst)
// Nonce64 calls would produce, as NonceBatcher requires.
func (s *SeededNonceSource) Nonce64Batch(dst []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range dst {
		dst[i] = s.next()
	}
}

// next advances the SplitMix64 state; callers hold s.mu.
func (s *SeededNonceSource) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
