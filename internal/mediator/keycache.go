// The Extension's derived-key cache: a re-open of a document the
// extension already opened skips the password-based key derivation.
package mediator

import (
	"crypto/sha256"
	"sync"

	"privedit/internal/blockdoc"
)

// maxCachedKeys bounds the key cache; past it the oldest key is dropped
// and its document pays one more derivation on its next open.
const maxCachedKeys = 1024

// keyID names one derived key: the container's salt and a digest of the
// password the provider returned for it. The digest covers the salt too,
// so equal passwords on different documents give unrelated digests. A
// new salt (a new document, a rekey) or a changed password is a new id.
type keyID [sha256.Size]byte

func newKeyID(salt [blockdoc.SaltLen]byte, password string) keyID {
	h := sha256.New()
	h.Write(salt[:])
	h.Write([]byte(password))
	var id keyID
	h.Sum(id[:0])
	return id
}

// keyCache maps keyIDs to document keys for one Extension's lifetime. A
// key is inserted only after it opened a container, so it passed the
// header's key check: a wrong password is never cached.
type keyCache struct {
	mu sync.Mutex
	//taint:source derived document keys
	keys  map[keyID][]byte
	order []keyID // insertion order, oldest first
}

func (c *keyCache) get(id keyID) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key, ok := c.keys[id]
	return key, ok
}

func (c *keyCache) put(id keyID, key []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.keys[id]; ok {
		return
	}
	if c.keys == nil {
		c.keys = make(map[keyID][]byte)
	}
	if len(c.order) == maxCachedKeys {
		delete(c.keys, c.order[0])
		c.order = c.order[1:]
	}
	c.order = append(c.order, id)
	c.keys[id] = key
}
