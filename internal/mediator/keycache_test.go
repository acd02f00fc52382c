package mediator

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"privedit/internal/blockdoc"
	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/obs"
)

// sealed encrypts text under password into a fresh container.
func sealed(t *testing.T, password, text string, seed uint64) string {
	t.Helper()
	ed, err := core.NewEditor(password, core.Options{Nonces: crypt.NewSeededNonceSource(seed)})
	if err != nil {
		t.Fatal(err)
	}
	c, err := ed.Encrypt(text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// switchablePassword is a PasswordProvider whose password a test can
// change between opens.
type switchablePassword struct {
	mu sync.Mutex
	pw string
}

func (p *switchablePassword) set(pw string) {
	p.mu.Lock()
	p.pw = pw
	p.mu.Unlock()
}

func (p *switchablePassword) provide(string) (string, core.Options, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pw, core.Options{}, nil
}

// openCounted opens transport in a fresh session of e and returns the
// plaintext with the number of key derivations the open made.
func openCounted(t *testing.T, e *Extension, transport string) (plain string, derived int64, err error) {
	t.Helper()
	before := metricKeyDerivations.Value()
	sess := &session{}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	ed, err := e.openEditorLocked(sess, "doc", transport)
	derived = metricKeyDerivations.Value() - before
	if err != nil {
		return "", derived, err
	}
	return ed.Plaintext(), derived, nil
}

// TestKeyCacheDerivesOncePerKey pins when an open derives: the first open
// of a container does, a re-open does not, and a new salt (another
// document, or the same document after a rekey) or a changed provider
// password derives again.
func TestKeyCacheDerivesOncePerKey(t *testing.T) {
	obs.Enable()
	pw := &switchablePassword{pw: "alpha"}
	e := New(nil, pw.provide)
	docA := sealed(t, "alpha", "first document", 1)
	docB := sealed(t, "alpha", "second document", 2)

	step := func(name, transport, wantPlain string, wantDerived int64) {
		t.Helper()
		plain, derived, err := openCounted(t, e, transport)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if plain != wantPlain || derived != wantDerived {
			t.Fatalf("%s: plaintext %q with %d derivations, want %q with %d", name, plain, derived, wantPlain, wantDerived)
		}
	}
	step("first open", docA, "first document", 1)
	step("re-open", docA, "first document", 0)
	step("another document, same password", docB, "second document", 1)
	step("re-open of the other document", docB, "second document", 0)

	// Rekey: a fresh salt under a new password is a new key.
	ed, err := core.OpenWith("alpha", docA, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rekeyed, err := ed.RekeyWith("beta", core.Options{Nonces: crypt.NewSeededNonceSource(3)})
	if err != nil {
		t.Fatal(err)
	}
	pw.set("beta")
	step("rekeyed document", rekeyed, "first document", 1)
	step("re-open of the rekeyed document", rekeyed, "first document", 0)

	// The provider's password changed, the container did not: the key
	// cached for the old password must not open it.
	if _, derived, err := openCounted(t, e, docA); !errors.Is(err, core.ErrWrongPassword) || derived != 1 {
		t.Fatalf("old container under a changed password: err %v with %d derivations, want ErrWrongPassword with 1", err, derived)
	}
	pw.set("alpha")
	step("old password restored", docA, "first document", 0)
}

// TestKeyCacheWrongPasswordNeverCached: a wrong password fails every
// attempt with ErrWrongPassword, counts a password failure and a
// derivation each time, and leaves nothing in the cache
// (TestWrongPasswordOnLoad checks the same through Client.Load).
func TestKeyCacheWrongPasswordNeverCached(t *testing.T) {
	obs.Enable()
	e := New(nil, StaticPassword("wrong", core.Options{}))
	doc := sealed(t, "right", "sealed text", 4)
	for attempt := 1; attempt <= 3; attempt++ {
		failures := metricPasswordFailures.Value()
		_, derived, err := openCounted(t, e, doc)
		if !errors.Is(err, core.ErrWrongPassword) {
			t.Fatalf("attempt %d: err %v, want ErrWrongPassword", attempt, err)
		}
		if derived != 1 {
			t.Fatalf("attempt %d: %d derivations, want 1 (a wrong key is never cached)", attempt, derived)
		}
		if got := metricPasswordFailures.Value() - failures; got != 1 {
			t.Fatalf("attempt %d: password failures rose by %d, want 1", attempt, got)
		}
	}
	if n := len(e.keys.keys); n != 0 {
		t.Fatalf("key cache holds %d keys after wrong-password opens, want 0", n)
	}
}

// TestKeyCacheConcurrentOpens opens four documents from eight goroutines
// at once (run it with -race): every open sees its own text, each key is
// derived at most twice (two racing first opens may both derive), and
// afterwards every document re-opens with no derivation.
func TestKeyCacheConcurrentOpens(t *testing.T) {
	obs.Enable()
	e := New(nil, StaticPassword("shared", core.Options{}))
	const docs = 4
	transports := make([]string, docs)
	for i := range transports {
		transports[i] = sealed(t, "shared", fmt.Sprintf("document %d", i), uint64(10+i))
	}
	before := metricKeyDerivations.Value()
	var wg sync.WaitGroup
	errs := make(chan error, 2*docs)
	for g := 0; g < 2*docs; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess := &session{}
			sess.mu.Lock()
			defer sess.mu.Unlock()
			ed, err := e.openEditorLocked(sess, "doc", transports[i])
			if err == nil && ed.Plaintext() != fmt.Sprintf("document %d", i) {
				err = fmt.Errorf("document %d opened as %q", i, ed.Plaintext())
			}
			if err != nil {
				errs <- err
			}
		}(g % docs)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := metricKeyDerivations.Value() - before; got < docs || got > 2*docs {
		t.Fatalf("%d derivations for %d documents opened twice each, want %d..%d", got, docs, docs, 2*docs)
	}
	for i, tr := range transports {
		if _, derived, err := openCounted(t, e, tr); err != nil || derived != 0 {
			t.Fatalf("re-open of document %d: err %v, %d derivations, want none", i, err, derived)
		}
	}
}

// TestKeyCacheBounded: past maxCachedKeys the oldest key is dropped.
func TestKeyCacheBounded(t *testing.T) {
	var c keyCache
	for i := 0; i <= maxCachedKeys; i++ {
		var salt [blockdoc.SaltLen]byte
		crypt.PutUint64(salt[:8], uint64(i))
		c.put(newKeyID(salt, "pw"), []byte{byte(i)})
	}
	if len(c.keys) != maxCachedKeys || len(c.order) != maxCachedKeys {
		t.Fatalf("cache holds %d keys (%d in order), want %d", len(c.keys), len(c.order), maxCachedKeys)
	}
	var first [blockdoc.SaltLen]byte
	if _, ok := c.get(newKeyID(first, "pw")); ok {
		t.Fatal("oldest key survived past the bound")
	}
}
