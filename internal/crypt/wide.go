package crypt

import (
	"crypto/aes"
	stdcipher "crypto/cipher"
	"encoding/binary"
	"fmt"
	"sync"
)

// WidePRP is a pseudorandom permutation over 32-byte blocks built as a
// 4-round balanced Feistel network (Luby-Rackoff) whose round functions are
// AES-128 encryptions under independent round keys. Four rounds with
// independent PRF keys yield a strong (CCA-secure) PRP over the doubled
// block width — the standard construction, used here because the paper's
// RPC-mode blocks (r_i, d_i, r_{i+1}) do not fit in one AES block.
type WidePRP struct {
	rounds [4]stdcipher.Block
}

// NewWidePRP derives four independent AES round keys from the 16-byte
// master key and returns the wide permutation. The round keys are produced
// by encrypting distinct constants under the master key (a standard
// key-separation technique: AES as a PRF on the constant inputs).
func NewWidePRP(key []byte) (*WidePRP, error) {
	if len(key) != KeySize {
		return nil, ErrKeySize
	}
	master, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("crypt: new aes cipher: %w", err)
	}
	w := &WidePRP{}
	var in, out [BlockSize]byte
	for i := range w.rounds {
		for j := range in {
			in[j] = byte(i + 1)
		}
		master.Encrypt(out[:], in[:])
		rk, err := aes.NewCipher(out[:])
		if err != nil {
			return nil, fmt.Errorf("crypt: round key %d: %w", i, err)
		}
		w.rounds[i] = rk
	}
	return w, nil
}

// Encrypt applies the wide permutation to src, writing to dst. Both must be
// exactly WideBlockSize bytes; they may alias.
//
//taint:sanitizer Enc kernel: dst is ciphertext
func (w *WidePRP) Encrypt(dst, src []byte) error {
	if len(src) != WideBlockSize || len(dst) != WideBlockSize {
		return ErrBlockSize
	}
	var l, r, f [BlockSize]byte
	copy(l[:], src[:BlockSize])
	copy(r[:], src[BlockSize:])
	for i := 0; i < 4; i++ {
		// (L, R) -> (R, L xor F_i(R))
		w.rounds[i].Encrypt(f[:], r[:])
		for j := range l {
			l[j] ^= f[j]
		}
		l, r = r, l
	}
	copy(dst[:BlockSize], l[:])
	copy(dst[BlockSize:], r[:])
	return nil
}

// widePRPScratch recycles the 16-byte round-function output buffer of the
// run APIs. It escapes to the heap (it crosses the cipher.Block interface
// call), so pooling it is what keeps EncryptRun/DecryptRun allocation-free
// for the per-tile kernel loops.
var widePRPScratch = sync.Pool{New: func() any { return new([BlockSize]byte) }}

// xor16 folds the 16-byte round-function output f into buf[:16] word-wise.
// XOR commutes with byte order, so native-endian loads produce the same
// bytes as a fixed-endian view without the swaps — this runs four times
// per block on the hottest kernel loop.
func xor16(buf []byte, f *[BlockSize]byte) {
	binary.NativeEndian.PutUint64(buf[0:8], binary.NativeEndian.Uint64(buf[0:8])^binary.NativeEndian.Uint64(f[0:8]))
	binary.NativeEndian.PutUint64(buf[8:16], binary.NativeEndian.Uint64(buf[8:16])^binary.NativeEndian.Uint64(f[8:16]))
}

// EncryptRun applies the wide permutation in place to a run of contiguous
// 32-byte blocks. It computes exactly the same permutation as per-block
// Encrypt calls, but round-major: each of the four AES round keys sweeps
// the entire run before the next, so the per-round cipher state is hot
// across the run and the per-block L/R copies of the one-shot API
// disappear entirely (the Feistel halves alternate roles in place).
//
// buf must be a whole number of wide blocks. Callers bound runs to a few
// KiB (see the rpcmode kernels) so a run's four sweeps stay in L1.
//
//taint:sanitizer Enc kernel: buf is ciphertext on return
func (w *WidePRP) EncryptRun(buf []byte) error {
	if len(buf)%WideBlockSize != 0 {
		return ErrBlockSize
	}
	f := widePRPScratch.Get().(*[BlockSize]byte)
	defer widePRPScratch.Put(f)
	for i, round := range w.rounds {
		// Tracking the reference Encrypt's swaps through the rounds: even
		// rounds read the right half (offset 16) and fold into the left,
		// odd rounds the reverse, and after four rounds the output halves
		// sit exactly where the reference's final copies put them.
		in, out := BlockSize, 0
		if i%2 == 1 {
			in, out = 0, BlockSize
		}
		for off := 0; off < len(buf); off += WideBlockSize {
			round.Encrypt(f[:], buf[off+in:off+in+BlockSize])
			xor16(buf[off+out:off+out+BlockSize], f)
		}
	}
	return nil
}

// DecryptRun applies the inverse wide permutation in place to a run of
// contiguous 32-byte blocks: the round-major inverse of EncryptRun.
func (w *WidePRP) DecryptRun(buf []byte) error {
	if len(buf)%WideBlockSize != 0 {
		return ErrBlockSize
	}
	f := widePRPScratch.Get().(*[BlockSize]byte)
	defer widePRPScratch.Put(f)
	for i := 3; i >= 0; i-- {
		// Each encryption round xored F(one half) into the other half and
		// left the F input untouched, so the inverse replays the same xor
		// with the rounds in reverse order.
		in, out := BlockSize, 0
		if i%2 == 1 {
			in, out = 0, BlockSize
		}
		round := w.rounds[i]
		for off := 0; off < len(buf); off += WideBlockSize {
			round.Encrypt(f[:], buf[off+in:off+in+BlockSize])
			xor16(buf[off+out:off+out+BlockSize], f)
		}
	}
	return nil
}

// Decrypt applies the inverse wide permutation to src, writing to dst.
// Both must be exactly WideBlockSize bytes; they may alias.
func (w *WidePRP) Decrypt(dst, src []byte) error {
	if len(src) != WideBlockSize || len(dst) != WideBlockSize {
		return ErrBlockSize
	}
	var l, r, f [BlockSize]byte
	copy(l[:], src[:BlockSize])
	copy(r[:], src[BlockSize:])
	for i := 3; i >= 0; i-- {
		// invert (L, R) -> (R, L xor F_i(R)): given (L', R') = (R, L^F(R)),
		// recover R = L', L = R' xor F_i(L').
		l, r = r, l
		w.rounds[i].Encrypt(f[:], r[:])
		for j := range l {
			l[j] ^= f[j]
		}
	}
	copy(dst[:BlockSize], l[:])
	copy(dst[BlockSize:], r[:])
	return nil
}
