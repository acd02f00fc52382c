// Package recb implements the randomized-ECB (rECB) incremental encryption
// mode of Buonanno, Katz & Yung as used by Huang & Evans §V-B for
// confidentiality-only protection. With document blocks d_1..d_n the
// ciphertext is
//
//	F_sk(r0), F_sk(r0⊕r_1, r_1⊕d_1), ..., F_sk(r0⊕r_n, r_n⊕d_n)
//
// where the r_i are fresh 64-bit nonces and F_sk is AES-128. Every block is
// independent given r0, so inserts and deletes touch only the edited
// blocks: the ideal incremental case. The mode detects no tampering — the
// package's tests demonstrate the block-substitution attack the paper
// accepts for this mode.
//
// Container record: 1 count byte (block character count, stored in the
// clear — the paper: "we have to store the block character counters so
// that we remember block boundaries") followed by the 16-byte AES block.
package recb

import (
	"fmt"
	"sync"

	"privedit/internal/blockdoc"
	"privedit/internal/crypt"
)

// SchemeID is the container header byte identifying rECB.
const SchemeID = 1

const (
	recordBytes = 1 + crypt.BlockSize // count byte + AES block
	prefixBytes = crypt.BlockSize     // F_sk(r0 ‖ 0^64)
	maxChars    = 8                   // 64-bit data field
)

// Codec is the rECB scheme. It implements blockdoc.Codec.
type Codec struct {
	prp    *crypt.PRP
	nonces crypt.NonceSource

	// mu guards r0, the container-level nonce every block is bound to.
	// The whole-document kernels work with a local copy and publish it
	// once on success, so concurrent calls on one codec never observe a
	// half-updated document state (and never race: each call's blocks are
	// consistent with the prefix that call returns).
	mu sync.Mutex
	r0 uint64
}

var _ blockdoc.Codec = (*Codec)(nil)

// New builds an rECB codec from a 16-byte AES key. nonces supplies the
// 64-bit block nonces; pass crypt.CryptoNonceSource{} outside tests.
func New(key []byte, nonces crypt.NonceSource) (*Codec, error) {
	prp, err := crypt.NewPRP(key)
	if err != nil {
		return nil, fmt.Errorf("recb: %w", err)
	}
	return &Codec{prp: prp, nonces: nonces}, nil
}

// Name implements blockdoc.Codec.
func (c *Codec) Name() string { return "rECB" }

// ID implements blockdoc.Codec.
func (c *Codec) ID() byte { return SchemeID }

// RecordBytes implements blockdoc.Codec.
func (c *Codec) RecordBytes() int { return recordBytes }

// PrefixBytes implements blockdoc.Codec.
func (c *Codec) PrefixBytes() int { return prefixBytes }

// TrailerBytes implements blockdoc.Codec. rECB has no integrity trailer.
func (c *Codec) TrailerBytes() int { return 0 }

// MaxChars implements blockdoc.Codec.
func (c *Codec) MaxChars() int { return maxChars }

// snapshotR0 reads the published container nonce.
func (c *Codec) snapshotR0() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.r0
}

// publishR0 installs the container nonce a successful whole-document call
// established.
func (c *Codec) publishR0(r0 uint64) {
	c.mu.Lock()
	c.r0 = r0
	c.mu.Unlock()
}

// padChars returns the 64-bit zero-padded data field for a block. Full
// blocks — the overwhelming majority at any b — skip the staging copy.
func padChars(chars []byte) uint64 {
	if len(chars) == maxChars {
		return crypt.Uint64(chars)
	}
	var d [8]byte
	copy(d[:], chars)
	return crypt.Uint64(d[:])
}

// risPool recycles the kernel's bulk nonce scratch. Every nonce is
// copied into its output block during assembly, so the slice is dead by
// the time a call returns and can be handed to the next one.
var risPool = sync.Pool{New: func() any { return new([]uint64) }}

func getRis(n int) *[]uint64 {
	p := risPool.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	*p = (*p)[:n]
	return p
}

// arena carries the per-call backing arrays of the kernel: one allocation
// per array per call instead of two small makes per block. Each
// block's record and character slices are strided sub-slices (capped with
// full slice expressions, so a later append can never bleed into a
// neighbor's region).
type arena struct {
	recs  []byte
	chars []byte
	slab  []blockdoc.Block
}

func newArena(n int) arena {
	// One byte backing for records and characters; the record region comes
	// first and is capacity-capped so record slicing can never reach the
	// character region.
	buf := make([]byte, n*(recordBytes+maxChars))
	return arena{
		recs:  buf[: n*recordBytes : n*recordBytes],
		chars: buf[n*recordBytes:],
		slab:  make([]blockdoc.Block, n),
	}
}

func (a *arena) rec(i int) []byte {
	return a.recs[i*recordBytes : (i+1)*recordBytes : (i+1)*recordBytes]
}

func (a *arena) charSlot(i, n int) []byte {
	return a.chars[i*maxChars : i*maxChars+n : i*maxChars+n]
}

// seal is the Enc kernel: it draws one nonce per chunk in document order
// (so the ciphertext is deterministic for a given source) and seals the
// chunks under the container nonce r0 into one arena. The plaintext is
// assembled directly in each record's AES slot and encrypted in place.
func (c *Codec) seal(chunks [][]byte, r0 uint64) ([]*blockdoc.Block, error) {
	n := len(chunks)
	rp := getRis(n)
	defer risPool.Put(rp)
	ris := *rp
	crypt.FillNonces(c.nonces, ris)
	a := newArena(n)
	blocks := make([]*blockdoc.Block, n)
	for i, ch := range chunks {
		if len(ch) == 0 || len(ch) > maxChars {
			return nil, fmt.Errorf("%w: block of %d chars", blockdoc.ErrCorrupt, len(ch))
		}
		rec := a.rec(i)
		rec[0] = byte(len(ch))
		crypt.PutUint64(rec[1:9], r0^ris[i])
		crypt.PutUint64(rec[9:17], ris[i]^padChars(ch))
		if err := c.prp.Encrypt(rec[1:], rec[1:]); err != nil {
			return nil, err
		}
		own := a.charSlot(i, len(ch))
		copy(own, ch)
		a.slab[i] = blockdoc.Block{Chars: own, Record: rec, Nonce: ris[i]}
		blocks[i] = &a.slab[i]
	}
	return blocks, nil
}

// open is the Dec kernel: it opens every record under the container nonce
// r0 into one arena, checking each record's count and padding.
func (c *Codec) open(records [][]byte, r0 uint64) ([]*blockdoc.Block, error) {
	a := newArena(len(records))
	blocks := make([]*blockdoc.Block, len(records))
	var pt [crypt.BlockSize]byte
	for i, rec := range records {
		if len(rec) != recordBytes {
			return nil, fmt.Errorf("record %d: %w: record of %d bytes", i, blockdoc.ErrCorrupt, len(rec))
		}
		count := int(rec[0])
		if count < 1 || count > maxChars {
			return nil, fmt.Errorf("record %d: %w: block count %d", i, blockdoc.ErrCorrupt, count)
		}
		if err := c.prp.Decrypt(pt[:], rec[1:]); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		ri := crypt.Uint64(pt[:8]) ^ r0
		d := crypt.Uint64(pt[8:]) ^ ri
		crypt.PutUint64(pt[8:], d)
		for _, b := range pt[8+count:] {
			if b != 0 {
				return nil, fmt.Errorf("record %d: %w: nonzero block padding", i, blockdoc.ErrCorrupt)
			}
		}
		chars := a.charSlot(i, count)
		copy(chars, pt[8:8+count])
		recOwn := a.rec(i)
		copy(recOwn, rec)
		a.slab[i] = blockdoc.Block{Chars: chars, Record: recOwn, Nonce: ri}
		blocks[i] = &a.slab[i]
	}
	return blocks, nil
}

// EncryptAll implements blockdoc.Codec: fresh r0, every chunk encrypted
// independently.
func (c *Codec) EncryptAll(chunks [][]byte) (prefix []byte, blocks []*blockdoc.Block, trailer []byte, err error) {
	r0 := c.nonces.Nonce64()
	prefix = make([]byte, prefixBytes)
	var pt [crypt.BlockSize]byte
	crypt.PutUint64(pt[:8], r0)
	if err := c.prp.Encrypt(prefix, pt[:]); err != nil {
		return nil, nil, nil, err
	}
	if blocks, err = c.seal(chunks, r0); err != nil {
		return nil, nil, nil, err
	}
	c.publishR0(r0)
	return prefix, blocks, nil, nil
}

// DecryptAll implements blockdoc.Codec. rECB can verify structure (counts,
// padding) but, by design, not integrity.
func (c *Codec) DecryptAll(prefix []byte, records [][]byte, trailer []byte) ([]*blockdoc.Block, error) {
	if len(prefix) != prefixBytes {
		return nil, fmt.Errorf("%w: prefix of %d bytes", blockdoc.ErrCorrupt, len(prefix))
	}
	if len(trailer) != 0 {
		return nil, fmt.Errorf("%w: unexpected trailer", blockdoc.ErrCorrupt)
	}
	var pt [crypt.BlockSize]byte
	if err := c.prp.Decrypt(pt[:], prefix); err != nil {
		return nil, err
	}
	if crypt.Uint64(pt[8:]) != 0 {
		return nil, fmt.Errorf("%w: nonzero r0 padding", blockdoc.ErrCorrupt)
	}
	r0 := crypt.Uint64(pt[:8])
	blocks, err := c.open(records, r0)
	if err != nil {
		return nil, err
	}
	c.publishR0(r0)
	return blocks, nil
}

// Splice implements blockdoc.Codec. Blocks are independent, so the
// replacement blocks are simply encrypted under fresh nonces; neighbors,
// prefix, and trailer are untouched — rECB's IncE is ideal (O(1) per
// edited block).
func (c *Codec) Splice(left *blockdoc.Block, removed []*blockdoc.Block, chunks [][]byte, right *blockdoc.Block) (
	added []*blockdoc.Block, newLeftRecord, newPrefix, newTrailer []byte, err error) {
	if added, err = c.seal(chunks, c.snapshotR0()); err != nil {
		return nil, nil, nil, nil, err
	}
	return added, nil, nil, nil, nil
}
