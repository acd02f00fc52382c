package recb

import (
	"fmt"

	"privedit/internal/blockdoc"
	"privedit/internal/crypt"
)

// The per-block reference kernel: one nonce draw, one AES call and fresh
// allocations per block, written as directly from §V-B as possible. It is
// the oracle the arena kernel in recb.go is tested against; the two must
// agree byte for byte on ciphertext, nonces and errors.

func oraclePad(chars []byte) uint64 {
	var d [8]byte
	copy(d[:], chars)
	return crypt.Uint64(d[:])
}

func (c *Codec) oracleEncryptBlock(chars []byte, r0, ri uint64) (*blockdoc.Block, error) {
	if len(chars) == 0 || len(chars) > maxChars {
		return nil, fmt.Errorf("%w: block of %d chars", blockdoc.ErrCorrupt, len(chars))
	}
	var pt [crypt.BlockSize]byte
	crypt.PutUint64(pt[:8], r0^ri)
	crypt.PutUint64(pt[8:], ri^oraclePad(chars))
	rec := make([]byte, recordBytes)
	rec[0] = byte(len(chars))
	if err := c.prp.Encrypt(rec[1:], pt[:]); err != nil {
		return nil, err
	}
	own := make([]byte, len(chars))
	copy(own, chars)
	return &blockdoc.Block{Chars: own, Record: rec, Nonce: ri}, nil
}

func (c *Codec) oracleDecryptBlock(rec []byte, r0 uint64) (*blockdoc.Block, error) {
	count := int(rec[0])
	if count < 1 || count > maxChars {
		return nil, fmt.Errorf("%w: block count %d", blockdoc.ErrCorrupt, count)
	}
	var pt [crypt.BlockSize]byte
	if err := c.prp.Decrypt(pt[:], rec[1:]); err != nil {
		return nil, err
	}
	ri := crypt.Uint64(pt[:8]) ^ r0
	var db [8]byte
	crypt.PutUint64(db[:], crypt.Uint64(pt[8:])^ri)
	for _, b := range db[count:] {
		if b != 0 {
			return nil, fmt.Errorf("%w: nonzero block padding", blockdoc.ErrCorrupt)
		}
	}
	chars := make([]byte, count)
	copy(chars, db[:count])
	recOwn := make([]byte, recordBytes)
	copy(recOwn, rec)
	return &blockdoc.Block{Chars: chars, Record: recOwn, Nonce: ri}, nil
}

func (c *Codec) oracleEncryptAll(chunks [][]byte) (prefix []byte, blocks []*blockdoc.Block, err error) {
	r0 := c.nonces.Nonce64()
	prefix = make([]byte, prefixBytes)
	var pt [crypt.BlockSize]byte
	crypt.PutUint64(pt[:8], r0)
	if err := c.prp.Encrypt(prefix, pt[:]); err != nil {
		return nil, nil, err
	}
	blocks = make([]*blockdoc.Block, len(chunks))
	for i, ch := range chunks {
		if blocks[i], err = c.oracleEncryptBlock(ch, r0, c.nonces.Nonce64()); err != nil {
			return nil, nil, err
		}
	}
	c.publishR0(r0)
	return prefix, blocks, nil
}

func (c *Codec) oracleDecryptAll(prefix []byte, records []byte) ([]*blockdoc.Block, error) {
	if len(records)%recordBytes != 0 {
		return nil, fmt.Errorf("%w: %d record bytes are not a whole number of records", blockdoc.ErrCorrupt, len(records))
	}
	var pt [crypt.BlockSize]byte
	if err := c.prp.Decrypt(pt[:], prefix); err != nil {
		return nil, err
	}
	r0 := crypt.Uint64(pt[:8])
	blocks := make([]*blockdoc.Block, len(records)/recordBytes)
	for i := range blocks {
		b, err := c.oracleDecryptBlock(records[i*recordBytes:(i+1)*recordBytes], r0)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		blocks[i] = b
	}
	c.publishR0(r0)
	return blocks, nil
}

func (c *Codec) oracleSplice(chunks [][]byte) ([]*blockdoc.Block, error) {
	r0 := c.snapshotR0()
	added := make([]*blockdoc.Block, len(chunks))
	for i, ch := range chunks {
		var err error
		if added[i], err = c.oracleEncryptBlock(ch, r0, c.nonces.Nonce64()); err != nil {
			return nil, err
		}
	}
	return added, nil
}
