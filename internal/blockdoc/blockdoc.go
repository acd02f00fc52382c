// Package blockdoc implements the encrypted block-document engine at the
// center of the paper's design (§V). A document is a sequence of
// variable-length blocks of up to b plaintext characters; each block
// encrypts to one fixed-width container record. Blocks are indexed by an
// IndexedSkipList keyed on plaintext position, whose secondary weights give
// the corresponding offsets in the Base32 transport string stored by the
// untrusted server.
//
// The engine is scheme-agnostic: the rECB (confidentiality-only) and RPC
// (confidentiality+integrity) modes plug in as Codec implementations that
// decide how a block's characters become a record, how neighbors chain, and
// what prefix/trailer records accompany the document.
//
// Container layout (all regions Base32-coded independently so record
// boundaries fall on fixed character offsets):
//
//	[ header+scheme prefix ] [ record 0 ] ... [ record n-1 ] [ trailer ]
//
// Header: magic "PVED1", scheme id, block-size parameter, 16-byte salt.
package blockdoc

import (
	"errors"
	"fmt"

	"privedit/internal/crypt"
)

// Magic identifies privedit containers.
const Magic = "PVED1"

// SaltLen is the per-document key-derivation salt length.
const SaltLen = 16

// KeyCheckLen is the length of the password-verifier field: a keyed hash
// of the salt under the derived key, letting the client reject a wrong
// password deterministically ("it appears as ciphertext unless the user
// enters the correct password", §IV-C). It reveals nothing about the key.
const KeyCheckLen = 8

// headerBytes is the fixed length of the common header: magic, scheme id,
// block-size parameter, salt, key check.
const headerBytes = len(Magic) + 1 + 1 + SaltLen + KeyCheckLen

// Engine errors.
var (
	ErrCorrupt   = errors.New("blockdoc: corrupt container")
	ErrIntegrity = errors.New("blockdoc: integrity check failed")
	ErrRange     = errors.New("blockdoc: position out of range")
	ErrTooLarge  = errors.New("blockdoc: document exceeds size limit")
	// ErrNotSuccessor is a codec's answer from Reopen when the new
	// container starts a new ring (a fresh r0, as after a whole-document
	// Enc) and so cannot be opened as an edit of the held one.
	ErrNotSuccessor = errors.New("blockdoc: container is not an edit of the held one")
)

// Block is one plaintext block and its encrypted record. Codecs populate
// Record and Nonce; the engine owns Chars and list placement.
type Block struct {
	//taint:source plaintext block contents
	Chars  []byte // 1..MaxChars plaintext characters
	Record []byte // fixed-width container record
	Nonce  uint64 // the block's leading nonce r_i (chaining state for RPC)
}

// Codec is the per-scheme encryption strategy.
type Codec interface {
	// Name is the scheme's human-readable name ("rECB" or "RPC").
	Name() string
	// ID is the scheme byte stored in the container header.
	ID() byte
	// RecordBytes is the fixed container record width in bytes.
	RecordBytes() int
	// PrefixBytes is the scheme-specific prefix region width in bytes
	// (the r0 record for rECB, the start block for RPC).
	PrefixBytes() int
	// TrailerBytes is the trailer region width in bytes (0 for rECB, the
	// checksum block for RPC).
	TrailerBytes() int
	// MaxChars is the largest number of characters a record's data field
	// can carry (8 for a 64-bit field).
	MaxChars() int

	// EncryptAll rebuilds the whole document from plaintext chunks,
	// resetting all scheme state (fresh r0, aggregates). Returned blocks
	// carry Record and Nonce. This is the scheme's Enc function.
	EncryptAll(chunks [][]byte) (prefix []byte, blocks []*Block, trailer []byte, err error)

	// DecryptAll opens an existing container, verifying whatever the
	// scheme can verify (RPC: nonce ring, aggregates, length). It primes
	// the codec's internal state to continue incremental operation. This
	// is the scheme's Dec function. records is the decoded body, n records
	// of RecordBytes back to back; the codec adopts it as the blocks'
	// record arena, so the caller must not reuse it.
	DecryptAll(prefix []byte, records []byte, trailer []byte) (blocks []*Block, err error)

	// Splice is the scheme's IncE step for one contiguous block-range
	// replacement: the blocks `removed` are replaced by new blocks built
	// from `chunks`. `left` is the surviving block immediately before the
	// replacement point (nil if the replacement starts at the document
	// head) and `right` the surviving block immediately after (nil if the
	// replacement runs to the document tail).
	//
	// Returns the new blocks, a re-encrypted record for `left` (nil if
	// the left neighbor needs no rewrite), a new scheme prefix (nil if
	// unchanged) and a new trailer (nil if unchanged).
	Splice(left *Block, removed []*Block, chunks [][]byte, right *Block) (
		added []*Block, newLeftRecord []byte, newPrefix []byte, newTrailer []byte, err error)

	// Reopen is the dual of Splice, the incremental Dec step: it opens
	// the changed windows of a container that is an edit of the held one.
	// Outside the windows the container's records are the held ones,
	// byte for byte and in order. prefix is the new scheme prefix, nil if
	// unchanged; a non-nil prefix comes with a first window at the
	// document head. trailer is the new trailer region. Given that the
	// held container passed DecryptAll's check, Reopen must accept
	// exactly when the new container would pass it too. It returns the
	// opened blocks of all windows in order, or ErrNotSuccessor when the
	// container starts a new ring; on any error the codec state is
	// unchanged.
	Reopen(prefix []byte, windows []Window, trailer []byte) (added []*Block, err error)
}

// Window is one changed run of a re-opened container: Records, decoded
// but not yet opened and laid out as DecryptAll's, now stand where the
// blocks Removed stood, just before the surviving block Right (nil when
// the run reaches the tail).
type Window struct {
	Removed []*Block
	Records []byte
	Right   *Block
}

// Header is the plaintext container header. Scheme and block size must be
// readable before key derivation (the salt is an input to it).
type Header struct {
	SchemeID   byte
	BlockChars byte
	Salt       [SaltLen]byte
	KeyCheck   [KeyCheckLen]byte
}

func (h Header) encode() []byte {
	buf := make([]byte, 0, headerBytes)
	buf = append(buf, Magic...)
	buf = append(buf, h.SchemeID, h.BlockChars)
	buf = append(buf, h.Salt[:]...)
	buf = append(buf, h.KeyCheck[:]...)
	return buf
}

func decodeHeader(raw []byte) (Header, error) {
	if len(raw) < headerBytes {
		return Header{}, fmt.Errorf("%w: short header (%d bytes)", ErrCorrupt, len(raw))
	}
	if string(raw[:len(Magic)]) != Magic {
		return Header{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	var h Header
	h.SchemeID = raw[len(Magic)]
	h.BlockChars = raw[len(Magic)+1]
	copy(h.Salt[:], raw[len(Magic)+2:len(Magic)+2+SaltLen])
	copy(h.KeyCheck[:], raw[len(Magic)+2+SaltLen:headerBytes])
	if h.BlockChars == 0 {
		return Header{}, fmt.Errorf("%w: zero block size", ErrCorrupt)
	}
	return h, nil
}

// PeekHeader reads the container header from the beginning of a transport
// string without needing key material: everything the client must know
// before it can derive the document key.
func PeekHeader(transport string) (Header, error) {
	// 56 Base32 chars decode to exactly 35 bytes, a whole-group prefix
	// that covers the 31-byte header regardless of scheme.
	const peekChars = 56
	if len(transport) < peekChars {
		return Header{}, fmt.Errorf("%w: transport too short (%d chars)", ErrCorrupt, len(transport))
	}
	raw, err := crypt.DecodeTransport(transport[:peekChars])
	if err != nil {
		return Header{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return decodeHeader(raw)
}
