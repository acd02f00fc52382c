package rpcmode

import (
	"fmt"

	"privedit/internal/blockdoc"
	"privedit/internal/crypt"
)

// The per-block reference kernel: one nonce draw per block and one
// wide-PRP call and fresh allocations per record, with the ring and
// checksum folded block by block, written as directly from §V-B as
// possible. It is the oracle the tiled arena kernel in rpcmode.go is
// tested against; the two must agree byte for byte on ciphertext, nonces,
// ring state and errors.

func oraclePad(chars []byte) uint64 {
	var d [8]byte
	copy(d[:], chars)
	return crypt.Uint64(d[:])
}

func (c *Codec) oracleEncryptData(chars []byte, ri, next uint64) ([]byte, error) {
	if len(chars) == 0 || len(chars) > maxChars {
		return nil, fmt.Errorf("%w: block of %d chars", blockdoc.ErrCorrupt, len(chars))
	}
	return c.sealRecord(ri, oraclePad(chars), meta(typeData, len(chars)), next)
}

// oracleChain seals chunks as a chain closed on closer, folding each
// block into st, and returns the blocks and the chain's head nonce.
func (c *Codec) oracleChain(chunks [][]byte, closer uint64, st *ringState) ([]*blockdoc.Block, uint64, error) {
	n := len(chunks)
	ris := make([]uint64, n)
	for i := range ris {
		ris[i] = c.nonces.Nonce64()
	}
	blocks := make([]*blockdoc.Block, n)
	for i, ch := range chunks {
		next := closer
		if i+1 < n {
			next = ris[i+1]
		}
		rec, err := c.oracleEncryptData(ch, ris[i], next)
		if err != nil {
			return nil, 0, err
		}
		own := make([]byte, len(ch))
		copy(own, ch)
		blocks[i] = &blockdoc.Block{Chars: own, Record: rec, Nonce: ris[i]}
		st.xorAllR ^= ris[i]
		st.xorRTail ^= ris[i]
		st.xorD ^= oraclePad(ch)
	}
	if n == 0 {
		return blocks, closer, nil
	}
	return blocks, ris[0], nil
}

func (c *Codec) oracleEncryptAll(chunks [][]byte) (prefix []byte, blocks []*blockdoc.Block, trailer []byte, err error) {
	var st ringState
	st.r0 = c.nonces.Nonce64()
	st.xorAllR = st.r0
	st.count = uint64(len(chunks))
	blocks, first, err := c.oracleChain(chunks, st.r0, &st)
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

func (c *Codec) oracleDecryptAll(prefix []byte, records [][]byte, trailer []byte) ([]*blockdoc.Block, error) {
	f0, _, _, f3, err := c.openRecord(prefix)
	if err != nil {
		return nil, err
	}
	st := ringState{r0: f0, xorAllR: f0, count: uint64(len(records))}
	expected := f3
	blocks := make([]*blockdoc.Block, len(records))
	for i, rec := range records {
		ri, d, m, next, err := c.openRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		typ, count, rest := unpackMeta(m)
		if typ != typeData || rest != 0 || count < 1 || count > maxChars {
			return nil, fmt.Errorf("%w: record %d malformed", blockdoc.ErrIntegrity, i)
		}
		if ri != expected {
			return nil, fmt.Errorf("%w: record %d breaks the nonce chain", blockdoc.ErrIntegrity, i)
		}
		var db [8]byte
		crypt.PutUint64(db[:], d)
		for _, b := range db[count:] {
			if b != 0 {
				return nil, fmt.Errorf("%w: record %d has nonzero padding", blockdoc.ErrIntegrity, i)
			}
		}
		chars := make([]byte, count)
		copy(chars, db[:count])
		recOwn := make([]byte, recordBytes)
		copy(recOwn, rec)
		blocks[i] = &blockdoc.Block{Chars: chars, Record: recOwn, Nonce: ri}
		st.xorAllR ^= ri
		st.xorRTail ^= ri
		st.xorD ^= d
		expected = next
	}
	if expected != st.r0 {
		return nil, fmt.Errorf("%w: nonce ring does not close", blockdoc.ErrIntegrity)
	}
	t0, t1, t2, t3, err := c.openRecord(trailer)
	if err != nil {
		return nil, err
	}
	if t0 != st.xorAllR || t1 != st.xorD || t2 != st.count || t3 != st.xorRTail {
		return nil, fmt.Errorf("%w: checksum block mismatch", blockdoc.ErrIntegrity)
	}
	c.publish(st)
	return blocks, nil
}

func (c *Codec) oracleSplice(left *blockdoc.Block, removed []*blockdoc.Block, chunks [][]byte, right *blockdoc.Block) (
	added []*blockdoc.Block, newLeftRecord, newPrefix, newTrailer []byte, err error) {
	st := c.snapshot()
	for _, b := range removed {
		st.xorAllR ^= b.Nonce
		st.xorRTail ^= b.Nonce
		st.xorD ^= oraclePad(b.Chars)
		st.count--
	}
	rightNonce := st.r0
	if right != nil {
		rightNonce = right.Nonce
	}
	st.count += uint64(len(chunks))
	added, first, err := c.oracleChain(chunks, rightNonce, &st)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if left != nil {
		newLeftRecord, err = c.oracleEncryptData(left.Chars, left.Nonce, first)
	} else {
		newPrefix, err = c.encryptStart(st.r0, first)
	}
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if newTrailer, err = c.encryptTrailer(st); err != nil {
		return nil, nil, nil, nil, err
	}
	c.publish(st)
	return added, newLeftRecord, newPrefix, newTrailer, nil
}
