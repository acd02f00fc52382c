// Package core is the public face of the privedit library: the paper's
// incremental encryption scheme (the 4-tuple K, Enc, Dec, IncE of §V-A)
// packaged as the enc_scheme object that Figure 2's request mediator uses,
// with three operations — encrypt, decrypt, and transform_delta — plus the
// per-document password handling of §IV-C.
//
// An Editor owns one encrypted document. Creating an editor derives a
// document key from a password and a fresh salt (K); Encrypt builds the
// full ciphertext container (Enc); Open/Decrypt recovers the plaintext
// from a container (Dec); and TransformDelta converts a plaintext delta
// into the ciphertext delta the server applies to its stored copy (IncE).
package core

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"

	"privedit/internal/blockdoc"
	"privedit/internal/crypt"
	"privedit/internal/delta"
	"privedit/internal/obs"
	"privedit/internal/recb"
	"privedit/internal/rpcmode"
)

// Telemetry: the paper's §VII micro-benchmark operations, timed in situ.
// No-ops until obs.Enable() is called.
var (
	metricEncrypt = obs.NewHistogram("privedit_core_encrypt_seconds",
		"Whole-document encryption (Enc) latency in seconds.", obs.TimeBuckets)
	metricTransform = obs.NewHistogram("privedit_transform_delta_seconds",
		"transform_delta (IncE) latency in seconds: plaintext delta to ciphertext delta.", obs.TimeBuckets)
	metricSplice = obs.NewHistogram("privedit_splice_seconds",
		"Single programmatic splice latency in seconds.", obs.TimeBuckets)
	metricRekey = obs.NewHistogram("privedit_rekey_seconds",
		"Password change (full re-encryption) latency in seconds.", obs.TimeBuckets)
	metricOpen = obs.NewHistogram("privedit_core_open_seconds",
		"Keyed container open (key check, Dec + integrity verification; no key derivation) latency in seconds.", obs.TimeBuckets)
)

// Scheme selects the protection level, mirroring the prototype's dialog:
// "users ... may select either a confidentiality-only scheme or one that
// provides both confidentiality and integrity" (§II).
type Scheme int

const (
	// ConfidentialityOnly is the rECB mode (§V-B).
	ConfidentialityOnly Scheme = iota + 1
	// ConfidentialityIntegrity is the RPC mode with the length amendment.
	ConfidentialityIntegrity
)

// String returns the scheme's paper name.
func (s Scheme) String() string {
	switch s {
	case ConfidentialityOnly:
		return "rECB"
	case ConfidentialityIntegrity:
		return "RPC"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// DefaultBlockChars is the default multi-character block size: the paper
// chooses "a maximum of 8 characters (64 bits) per block" (§V-C).
const DefaultBlockChars = 8

// Core errors.
var (
	ErrWrongPassword = errors.New("core: wrong password")
	ErrBadScheme     = errors.New("core: unknown scheme")
)

// Options configures an Editor. It is the single options path shared by
// every constructor-shaped entry point — NewEditor, OpenWith, OpenWithKey,
// DecryptWith, and RekeyWith. It holds only what the container depends
// on: the scheme, the block size and the nonce source. There is no kernel
// or performance knob: every call runs the codec's one kernel on the
// caller's goroutine.
type Options struct {
	// Scheme selects rECB or RPC. Default: ConfidentialityIntegrity.
	// Ignored by the open paths, which read it from the container.
	Scheme Scheme
	// BlockChars is the b parameter (1..8). Default: DefaultBlockChars.
	// Ignored by the open paths, which read it from the container.
	BlockChars int
	// Nonces supplies block nonces and the document salt. Default:
	// crypt.CryptoNonceSource{}. Override only in tests and reproducible
	// benchmarks.
	Nonces crypt.NonceSource
}

func (o *Options) fill() {
	if o.Scheme == 0 {
		o.Scheme = ConfidentialityIntegrity
	}
	if o.BlockChars == 0 {
		o.BlockChars = DefaultBlockChars
	}
	if o.Nonces == nil {
		o.Nonces = crypt.CryptoNonceSource{}
	}
}

// Editor is the client-side encryption state for one document: the
// enc_scheme object of Figure 2. An Editor is NOT safe for concurrent use;
// callers that share one document across goroutines (the mediator's
// per-document sessions) serialize access themselves.
type Editor struct {
	scheme Scheme
	doc    *blockdoc.Document
}

// keyCheck computes the header password verifier for a derived key.
func keyCheck(key, salt []byte) [blockdoc.KeyCheckLen]byte {
	mac := hmac.New(sha256.New, key)
	mac.Write([]byte("privedit-keycheck"))
	mac.Write(salt)
	sum := mac.Sum(nil)
	var kc [blockdoc.KeyCheckLen]byte
	copy(kc[:], sum)
	return kc
}

func newCodec(scheme Scheme, key []byte, nonces crypt.NonceSource) (blockdoc.Codec, error) {
	switch scheme {
	case ConfidentialityOnly:
		return recb.New(crypt.Subkey(key, "recb"), nonces)
	case ConfidentialityIntegrity:
		return rpcmode.New(crypt.Subkey(key, "rpc"), nonces)
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadScheme, scheme)
	}
}

// NewEditor creates the encryption state for a brand-new document: a fresh
// salt is drawn, the document key derived from the password (K), and an
// empty encrypted container initialized.
func NewEditor(password string, opts Options) (*Editor, error) {
	opts.fill()
	var salt [blockdoc.SaltLen]byte
	crypt.PutUint64(salt[:8], opts.Nonces.Nonce64())
	crypt.PutUint64(salt[8:], opts.Nonces.Nonce64())
	key := crypt.DeriveDocumentKey(password, salt[:])
	codec, err := newCodec(opts.Scheme, key, opts.Nonces)
	if err != nil {
		return nil, err
	}
	doc, err := blockdoc.New(codec, opts.BlockChars, salt, keyCheck(key, salt[:]))
	if err != nil {
		return nil, err
	}
	return &Editor{scheme: opts.Scheme, doc: doc}, nil
}

// OpenWith restores the encryption state from an existing ciphertext
// container (Dec): the key is derived from the password and the salt in
// the container header, then OpenWithKey checks it and decrypts. Only
// opts.Nonces is consulted — scheme and block size always come from the
// container.
func OpenWith(password, transport string, opts Options) (*Editor, error) {
	h, err := blockdoc.PeekHeader(transport)
	if err != nil {
		return nil, err
	}
	return OpenWithKey(crypt.DeriveDocumentKey(password, h.Salt[:]), transport, opts)
}

// OpenWithKey is OpenWith for a caller that already holds the document
// key, crypt.DeriveDocumentKey of the password and the container's salt:
// the scheme, block size, and salt are read from the container header,
// and the key is checked against the header's verifier before any
// decryption is attempted (ErrWrongPassword on a mismatch).
func OpenWithKey(key []byte, transport string, opts Options) (*Editor, error) {
	defer metricOpen.Start().End()
	if opts.Nonces == nil {
		opts.Nonces = crypt.CryptoNonceSource{}
	}
	h, err := blockdoc.PeekHeader(transport)
	if err != nil {
		return nil, err
	}
	var scheme Scheme
	switch h.SchemeID {
	case recb.SchemeID:
		scheme = ConfidentialityOnly
	case rpcmode.SchemeID:
		scheme = ConfidentialityIntegrity
	default:
		// int() marks the scheme id as a discriminator, not content.
		return nil, fmt.Errorf("%w: container scheme id %d", ErrBadScheme, int(h.SchemeID))
	}
	kc := keyCheck(key, h.Salt[:])
	if kc != h.KeyCheck {
		return nil, ErrWrongPassword
	}
	codec, err := newCodec(scheme, key, opts.Nonces)
	if err != nil {
		return nil, err
	}
	doc, err := blockdoc.New(codec, int(h.BlockChars), h.Salt, kc)
	if err != nil {
		return nil, err
	}
	if err := doc.LoadTransport(transport); err != nil {
		return nil, err
	}
	return &Editor{scheme: scheme, doc: doc}, nil
}

// Scheme returns the editor's protection level.
func (e *Editor) Scheme() Scheme { return e.scheme }

// BlockChars returns the document's block-size parameter b.
func (e *Editor) BlockChars() int { return e.doc.BlockChars() }

// Encrypt replaces the document contents with plaintext and returns the
// full ciphertext container (Enc). This is what the mediator does with the
// docContents field of the first save in an editing session.
//
//taint:sanitizer Enc: plaintext leaves only as ciphertext container
func (e *Editor) Encrypt(plaintext string) (string, error) {
	defer metricEncrypt.Start().End()
	if err := e.doc.LoadPlaintext(plaintext); err != nil {
		return "", err
	}
	return e.doc.Transport(), nil
}

// Plaintext returns the current document text (Dec of the current state).
func (e *Editor) Plaintext() string { return e.doc.Plaintext() }

// Transport returns the current ciphertext container.
//
//taint:sanitizer returns the ciphertext transport form
func (e *Editor) Transport() string { return e.doc.Transport() }

// TransportLen returns the ciphertext container length in characters.
func (e *Editor) TransportLen() int { return e.doc.TransportLen() }

// Len returns the plaintext length in characters.
func (e *Editor) Len() int { return e.doc.Len() }

// TransformDelta converts a plaintext delta (wire form) into the
// ciphertext delta (wire form) that performs the corresponding update on
// the server's stored container: the mediator's transform_delta call in
// Figure 2. The editor's state advances to reflect the edit.
//
//taint:sanitizer emits a ciphertext delta
func (e *Editor) TransformDelta(wire string) (string, error) {
	pd, err := delta.Parse(wire)
	if err != nil {
		return "", err
	}
	cd, err := e.TransformDeltaOps(pd)
	if err != nil {
		return "", err
	}
	return cd.String(), nil
}

// TransformDeltaOps is TransformDelta on parsed operations.
//
//taint:sanitizer emits a ciphertext delta
func (e *Editor) TransformDeltaOps(pd delta.Delta) (delta.Delta, error) {
	sp := metricTransform.Start()
	cd, err := e.doc.TransformDelta(pd)
	sp.End()
	return cd, err
}

// Splice performs a single programmatic edit (delete del characters at
// pos, insert ins) and returns the ciphertext delta.
//
//taint:sanitizer emits a ciphertext delta
func (e *Editor) Splice(pos, del int, ins string) (delta.Delta, error) {
	sp := metricSplice.Start()
	cd, err := e.doc.Splice(pos, del, ins)
	sp.End()
	return cd, err
}

// RekeyWith re-encrypts the document under a new password: a fresh salt is
// drawn, a new key derived, and every block re-encrypted with fresh
// nonces. The returned container replaces the server's copy wholesale (a
// key change cannot be expressed as an incremental delta without leaking
// that the key did not really change). Scheme and block size always carry
// over from the current editor; only opts.Nonces is consulted.
//
//taint:sanitizer re-encrypts wholesale; returns ciphertext container
func (e *Editor) RekeyWith(newPassword string, opts Options) (string, error) {
	defer metricRekey.Start().End()
	if opts.Nonces == nil {
		opts.Nonces = crypt.CryptoNonceSource{}
	}
	replacement, err := NewEditor(newPassword, Options{
		Scheme:     e.scheme,
		BlockChars: e.BlockChars(),
		Nonces:     opts.Nonces,
	})
	if err != nil {
		return "", err
	}
	transport, err := replacement.Encrypt(e.Plaintext())
	if err != nil {
		return "", err
	}
	e.doc = replacement.doc
	return transport, nil
}

// Reload replaces the editor's state from a container produced under the
// same password and parameters: Dec without re-deriving the key. When the
// container is an edit of the one the editor holds, only the changed
// records are decoded and verified. The container must carry the same
// scheme, block size, and key check; otherwise an error is returned and the
// state is unchanged. Reload returns the plaintext delta from the text the
// editor held to the text it now holds.
func (e *Editor) Reload(transport string) (delta.Delta, error) {
	return e.doc.Reload(transport)
}

// Stats exposes the underlying document statistics.
func (e *Editor) Stats() blockdoc.Stats { return e.doc.Stats() }

// SelfCheck verifies that the current container round-trips (for RPC, the
// full integrity verification).
func (e *Editor) SelfCheck() error { return e.doc.SelfCheck() }

// DecryptWith is a one-shot decryption of a container under explicit
// options (only Nonces is consulted).
func DecryptWith(password, transport string, opts Options) (string, error) {
	ed, err := OpenWith(password, transport, opts)
	if err != nil {
		return "", err
	}
	return ed.Plaintext(), nil
}

// Decrypt is a convenience for one-shot decryption of a container with
// default options.
func Decrypt(password, transport string) (string, error) {
	return DecryptWith(password, transport, Options{})
}
