// Package rpcmode implements the RPC incremental unforgeable encryption
// mode of Buonanno, Katz & Yung, with the security amendment of Wang, Kao
// & Yeh that binds the document length into the final ciphertext block
// (Huang & Evans §V-B). RPC provides confidentiality *and* integrity: the
// plaintext blocks are chained into a ring by random nonces, so any block
// substitution, reordering, replay, truncation, or splice breaks the chain
// and is detected at decryption.
//
// With document blocks d_1..d_n the ciphertext is
//
//	W_sk(r_0, α, r_1), W_sk(r_1, d_1, r_2), ..., W_sk(r_n, d_n, r_0),
//	W_sk(⊕_{i=0..n} r_i, ⊕ d_i, n, ⊕_{i=1..n} r_i)
//
// where W_sk is a 256-bit wide-block PRP (the paper's triples do not fit
// one AES block with 64-bit nonces; see internal/crypt). The final
// checksum block carries the XOR aggregates and the block count n — the
// Wang et al. amendment. Incremental updates maintain the aggregates by
// XOR-ing blocks out and in, so IncE touches only the edited blocks, one
// left neighbor, and the trailer: O(edit + log n) total.
package rpcmode

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"privedit/internal/blockdoc"
	"privedit/internal/crypt"
)

// SchemeID is the container header byte identifying RPC.
const SchemeID = 2

const (
	recordBytes = crypt.WideBlockSize // one wide block per record
	prefixBytes = crypt.WideBlockSize // start block W(r0, α, ·, r1)
	trailerByts = crypt.WideBlockSize // checksum block
	maxChars    = 8                   // 64-bit data field
)

// wideRunBlocks is the tile size of the kernels: the number of
// records handed to one WidePRP Encrypt/DecryptRun call. 128 records is a
// 4 KiB tile, small enough that the four round-major sweeps stay in L1 and
// large enough to amortize the per-run dispatch.
const wideRunBlocks = 128

// Record field types stored in the meta field.
const (
	typeStart = 1
	typeData  = 2
)

// alpha is the paper's arbitrary start-marker symbol α.
var alpha = [8]byte{'R', 'P', 'C', '-', 'S', 'T', 'R', 'T'}

// ringState is the ring and aggregate state of one container: rebuilt by
// EncryptAll/DecryptAll, maintained incrementally by Splice. The
// whole-document kernels compute on a local copy and publish it once on
// success, so concurrent calls on one codec never race on it.
type ringState struct {
	r0       uint64
	xorAllR  uint64 // ⊕ r_i for i = 0..n
	xorD     uint64 // ⊕ padded d_i
	xorRTail uint64 // ⊕ r_i for i = 1..n
	count    uint64 // n
}

// Codec is the RPC scheme. It implements blockdoc.Codec.
type Codec struct {
	wide   *crypt.WidePRP
	nonces crypt.NonceSource

	// mu guards state between whole-document calls.
	mu    sync.Mutex
	state ringState
}

var _ blockdoc.Codec = (*Codec)(nil)

// New builds an RPC codec from a 16-byte key. nonces supplies the 64-bit
// chaining nonces; pass crypt.CryptoNonceSource{} outside tests.
func New(key []byte, nonces crypt.NonceSource) (*Codec, error) {
	wide, err := crypt.NewWidePRP(key)
	if err != nil {
		return nil, fmt.Errorf("rpcmode: %w", err)
	}
	return &Codec{wide: wide, nonces: nonces}, nil
}

// Name implements blockdoc.Codec.
func (c *Codec) Name() string { return "RPC" }

// ID implements blockdoc.Codec.
func (c *Codec) ID() byte { return SchemeID }

// RecordBytes implements blockdoc.Codec.
func (c *Codec) RecordBytes() int { return recordBytes }

// PrefixBytes implements blockdoc.Codec.
func (c *Codec) PrefixBytes() int { return prefixBytes }

// TrailerBytes implements blockdoc.Codec.
func (c *Codec) TrailerBytes() int { return trailerByts }

// MaxChars implements blockdoc.Codec.
func (c *Codec) MaxChars() int { return maxChars }

// snapshot reads the published ring state.
func (c *Codec) snapshot() ringState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// publish installs the ring state a successful whole-document call
// established.
func (c *Codec) publish(st ringState) {
	c.mu.Lock()
	c.state = st
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

// risPool recycles the Enc kernel's bulk nonce scratch. Every nonce is
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

// sealRecord encrypts the four 64-bit fields of a record.
func (c *Codec) sealRecord(f0, f1, f2, f3 uint64) ([]byte, error) {
	var pt [recordBytes]byte
	crypt.PutUint64(pt[0:8], f0)
	crypt.PutUint64(pt[8:16], f1)
	crypt.PutUint64(pt[16:24], f2)
	crypt.PutUint64(pt[24:32], f3)
	rec := make([]byte, recordBytes)
	if err := c.wide.Encrypt(rec, pt[:]); err != nil {
		return nil, err
	}
	return rec, nil
}

// openRecord decrypts a record into its four 64-bit fields.
func (c *Codec) openRecord(rec []byte) (f0, f1, f2, f3 uint64, err error) {
	if len(rec) != recordBytes {
		return 0, 0, 0, 0, fmt.Errorf("%w: record of %d bytes", blockdoc.ErrCorrupt, len(rec))
	}
	var pt [recordBytes]byte
	if err := c.wide.Decrypt(pt[:], rec); err != nil {
		return 0, 0, 0, 0, err
	}
	return crypt.Uint64(pt[0:8]), crypt.Uint64(pt[8:16]), crypt.Uint64(pt[16:24]), crypt.Uint64(pt[24:32]), nil
}

// meta packs the record type and character count into the meta field.
func meta(typ byte, count int) uint64 {
	return uint64(typ)<<56 | uint64(byte(count))<<48
}

func unpackMeta(m uint64) (typ byte, count int, rest uint64) {
	return byte(m >> 56), int(byte(m >> 48)), m & 0x0000FFFFFFFFFFFF
}

// encryptData builds the record W(r_i, d_i, meta, next) for one data
// block: Splice's rewritten left neighbor.
func (c *Codec) encryptData(chars []byte, ri, next uint64) ([]byte, error) {
	if len(chars) == 0 || len(chars) > maxChars {
		return nil, fmt.Errorf("%w: block of %d chars", blockdoc.ErrCorrupt, len(chars))
	}
	return c.sealRecord(ri, padChars(chars), meta(typeData, len(chars)), next)
}

// encryptStart builds the start block W(r0, α, meta, next).
func (c *Codec) encryptStart(r0, next uint64) ([]byte, error) {
	return c.sealRecord(r0, crypt.Uint64(alpha[:]), meta(typeStart, 0), next)
}

// encryptTrailer builds the checksum block from the given aggregates.
func (c *Codec) encryptTrailer(st ringState) ([]byte, error) {
	return c.sealRecord(st.xorAllR, st.xorD, st.count, st.xorRTail)
}

// arena carries the per-call backing arrays of the kernels: one allocation
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
	// first and is capacity-capped so tile slicing can never reach the
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

// seal is the Enc kernel. It draws one nonce per chunk in document order
// (so the ciphertext is deterministic for a given source) and seals the
// chunks into one arena as a chain: block i points at block i+1's nonce
// and the last block at closer. Plaintext fields are assembled tile by
// tile directly in the record arena, then each 4 KiB tile is permuted in
// place by one round-major EncryptRun — amortizing the four cipher
// dispatches across the tile instead of paying them per block. The
// blocks' checksum contributions fold into st during assembly. first is
// the chain's head nonce: the first block's, or closer when there are no
// chunks.
func (c *Codec) seal(chunks [][]byte, closer uint64, st *ringState) (blocks []*blockdoc.Block, first uint64, err error) {
	n := len(chunks)
	rp := getRis(n)
	defer risPool.Put(rp)
	ris := *rp
	crypt.FillNonces(c.nonces, ris)
	a := newArena(n)
	blocks = make([]*blockdoc.Block, n)
	for tile := 0; tile < n; tile += wideRunBlocks {
		end := min(tile+wideRunBlocks, n)
		for i := tile; i < end; i++ {
			ch := chunks[i]
			if len(ch) == 0 || len(ch) > maxChars {
				return nil, 0, fmt.Errorf("%w: block of %d chars", blockdoc.ErrCorrupt, len(ch))
			}
			rec := a.rec(i)
			next := closer
			if i+1 < n {
				next = ris[i+1]
			}
			d := padChars(ch)
			st.xorAllR ^= ris[i]
			st.xorRTail ^= ris[i]
			st.xorD ^= d
			crypt.PutUint64(rec[0:8], ris[i])
			crypt.PutUint64(rec[8:16], d)
			crypt.PutUint64(rec[16:24], meta(typeData, len(ch)))
			crypt.PutUint64(rec[24:32], next)
			// The Block only captures slice headers, so it can be built
			// before the tile's in-place encryption turns rec into
			// ciphertext — one pass over the tile instead of two.
			own := a.charSlot(i, len(ch))
			copy(own, ch)
			a.slab[i] = blockdoc.Block{Chars: own, Record: rec, Nonce: ris[i]}
			blocks[i] = &a.slab[i]
		}
		if err := c.wide.EncryptRun(a.recs[tile*recordBytes : end*recordBytes]); err != nil {
			return nil, 0, err
		}
	}
	first = closer
	if n > 0 {
		first = ris[0]
	}
	return blocks, first, nil
}

// EncryptAll implements blockdoc.Codec: fresh ring, all aggregates rebuilt.
func (c *Codec) EncryptAll(chunks [][]byte) (prefix []byte, blocks []*blockdoc.Block, trailer []byte, err error) {
	var st ringState
	st.r0 = c.nonces.Nonce64()
	st.xorAllR = st.r0
	st.count = uint64(len(chunks))
	blocks, first, err := c.seal(chunks, st.r0, &st)
	if err != nil {
		return nil, nil, nil, err
	}
	if prefix, err = c.encryptStart(st.r0, first); err != nil {
		return nil, nil, nil, err
	}
	if trailer, err = c.encryptTrailer(st); err != nil {
		return nil, nil, nil, err
	}
	c.publish(st)
	return prefix, blocks, trailer, nil
}

// DecryptAll implements blockdoc.Codec, performing the full integrity
// verification: start marker, nonce ring closure, per-block structure,
// and the checksum block including the document length. It is Reopen's
// check on a fresh ring, with every record in one window.
func (c *Codec) DecryptAll(prefix []byte, records []byte, trailer []byte) ([]*blockdoc.Block, error) {
	return c.verify(nil, prefix, []blockdoc.Window{{Records: records}}, trailer)
}

// Reopen implements blockdoc.Codec: the verify dual of Splice. The held
// container passed DecryptAll's check, and the records outside the
// windows are byte-identical and in order, so they still open to the same
// well-formed fields and still link to each other. What is left of the
// check is each window record's structure and every chain link that
// touches a window: in from the surviving predecessor (or a new start
// block) and out to the surviving successor (or back to r0). The
// predecessor need not be opened: by the held container's check its next
// pointer names the first removed block, or the successor when none was
// removed. The checksum block must then match the aggregates with the
// removed blocks XOR-ed out and the window records XOR-ed in.
func (c *Codec) Reopen(prefix []byte, windows []blockdoc.Window, trailer []byte) ([]*blockdoc.Block, error) {
	held := c.snapshot()
	return c.verify(&held, prefix, windows, trailer)
}

// verify is the Dec kernel. It opens the windows' records against held,
// the ring state of the held container (nil for a fresh ring, whose r0
// the start block gives), and publishes the new state once every check
// passes. Opening the records — the wide-PRP inversion — is the expensive
// step. It runs one 4 KiB tile at a time: the tile's records are copied
// into one per-call tile buffer (smaller for a small window) and
// decrypted there, where the ring
// verification reads the fields, while the blocks' records stay in the
// window's buffer, adopted as the arena. That verification is inherently
// sequential: each record's nonce must equal the previous next pointer.
func (c *Codec) verify(held *ringState, prefix []byte, windows []blockdoc.Window, trailer []byte) ([]*blockdoc.Block, error) {
	var st ringState
	var head uint64
	if held != nil {
		st = *held
	}
	if prefix != nil || held == nil {
		if len(prefix) != prefixBytes {
			return nil, fmt.Errorf("%w: prefix of %d bytes", blockdoc.ErrCorrupt, len(prefix))
		}
		f0, f1, f2, f3, err := c.openRecord(prefix)
		if err != nil {
			return nil, err
		}
		typ, cnt, rest := unpackMeta(f2)
		if typ != typeStart || cnt != 0 || rest != 0 || f1 != crypt.Uint64(alpha[:]) {
			return nil, fmt.Errorf("%w: malformed start block", blockdoc.ErrIntegrity)
		}
		if held == nil {
			st = ringState{r0: f0, xorAllR: f0}
		} else if f0 != st.r0 {
			return nil, blockdoc.ErrNotSuccessor
		}
		head = f3
	}
	var added []*blockdoc.Block
	var tileBuf []byte
	for w, win := range windows {
		target := st.r0
		if win.Right != nil {
			target = win.Right.Nonce
		}
		expected := target
		if len(win.Removed) > 0 {
			expected = win.Removed[0].Nonce
		}
		if w == 0 && prefix != nil {
			expected = head
		}
		for _, b := range win.Removed {
			st.xorAllR ^= b.Nonce
			st.xorRTail ^= b.Nonce
			st.xorD ^= padChars(b.Chars)
		}
		if len(win.Records)%recordBytes != 0 {
			return nil, fmt.Errorf("%w: %d record bytes are not a whole number of records", blockdoc.ErrCorrupt, len(win.Records))
		}
		n := len(win.Records) / recordBytes
		if need := min(n, wideRunBlocks) * recordBytes; len(tileBuf) < need {
			tileBuf = make([]byte, need)
		}
		st.count += uint64(n) - uint64(len(win.Removed))
		added = slices.Grow(added, n)
		a := arena{recs: win.Records, chars: make([]byte, n*maxChars), slab: make([]blockdoc.Block, n)}
		var pts []byte
		for i := 0; i < n; i++ {
			k := i % wideRunBlocks
			if k == 0 {
				pts = tileBuf[:copy(tileBuf, a.recs[i*recordBytes:])]
				if err := c.wide.DecryptRun(pts); err != nil {
					return nil, err
				}
			}
			pt := pts[k*recordBytes : (k+1)*recordBytes]
			ri := crypt.Uint64(pt[0:8])
			d := crypt.Uint64(pt[8:16])
			typ, count, rest := unpackMeta(crypt.Uint64(pt[16:24]))
			if typ != typeData || rest != 0 || count < 1 || count > maxChars {
				return nil, fmt.Errorf("%w: record %d malformed", blockdoc.ErrIntegrity, i)
			}
			if ri != expected {
				return nil, fmt.Errorf("%w: record %d breaks the nonce chain", blockdoc.ErrIntegrity, i)
			}
			if !bytes.Equal(pt[8+count:16], zeroPad[:8-count]) {
				return nil, fmt.Errorf("%w: record %d has nonzero padding", blockdoc.ErrIntegrity, i)
			}
			chars := a.charSlot(i, count)
			copy(chars, pt[8:8+count])
			a.slab[i] = blockdoc.Block{Chars: chars, Record: a.rec(i), Nonce: ri}
			added = append(added, &a.slab[i])
			st.xorAllR ^= ri
			st.xorRTail ^= ri
			st.xorD ^= d
			expected = crypt.Uint64(pt[24:32])
		}
		if expected != target {
			return nil, fmt.Errorf("%w: nonce ring does not close after window %d", blockdoc.ErrIntegrity, w)
		}
	}
	if trailer == nil {
		return nil, fmt.Errorf("%w: missing checksum block", blockdoc.ErrIntegrity)
	}
	t0, t1, t2, t3, err := c.openRecord(trailer)
	if err != nil {
		return nil, err
	}
	if t0 != st.xorAllR || t1 != st.xorD || t2 != st.count || t3 != st.xorRTail {
		return nil, fmt.Errorf("%w: checksum block mismatch", blockdoc.ErrIntegrity)
	}
	c.publish(st)
	return added, nil
}

// zeroPad backs the constant zero-padding comparisons of the verify pass.
var zeroPad [8]byte

// Splice implements blockdoc.Codec. The replacement blocks are chained
// between the surviving neighbors: the left neighbor (or the start block,
// when the edit touches the document head) is re-encrypted to point at the
// first new nonce, the last new block points at the right neighbor's nonce
// (or r0, closing the ring), and the checksum aggregates are updated by
// XOR-ing the removed blocks out and the new blocks in.
func (c *Codec) Splice(left *blockdoc.Block, removed []*blockdoc.Block, chunks [][]byte, right *blockdoc.Block) (
	added []*blockdoc.Block, newLeftRecord, newPrefix, newTrailer []byte, err error) {
	st := c.snapshot()
	for _, b := range removed {
		st.xorAllR ^= b.Nonce
		st.xorRTail ^= b.Nonce
		st.xorD ^= padChars(b.Chars)
		st.count--
	}

	rightNonce := st.r0
	if right != nil {
		rightNonce = right.Nonce
	}

	st.count += uint64(len(chunks))
	added, first, err := c.seal(chunks, rightNonce, &st)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if left != nil {
		if newLeftRecord, err = c.encryptData(left.Chars, left.Nonce, first); err != nil {
			return nil, nil, nil, nil, err
		}
	} else {
		if newPrefix, err = c.encryptStart(st.r0, first); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	if newTrailer, err = c.encryptTrailer(st); err != nil {
		return nil, nil, nil, nil, err
	}
	c.publish(st)
	return added, newLeftRecord, newPrefix, newTrailer, nil
}
