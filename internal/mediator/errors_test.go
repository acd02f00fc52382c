package mediator

import (
	"errors"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
)

// failingProvider models a user cancelling the password dialog.
func failingProvider(string) (string, core.Options, error) {
	return "", core.Options{}, errors.New("user cancelled password dialog")
}

func TestPasswordProviderErrorBlocksEverything(t *testing.T) {
	h := newHarness(t, core.ConfidentialityOnly, nil)
	ext := New(h.ts.Client().Transport, failingProvider)
	client := gdocs.NewClient(ext.Client(), h.ts.URL, "doc")
	if err := client.Create(); !errors.Is(err, gdocs.ErrBlocked) {
		t.Errorf("Create = %v, want ErrBlocked", err)
	}
	client.SetText("x")
	if err := client.Save(); err == nil {
		t.Error("Save with failing provider accepted")
	}
}

func TestDeltaForUnknownDocumentBlocked(t *testing.T) {
	// A delta save for a document the extension has no state for must be
	// blocked, never forwarded (it would be plaintext).
	h := newHarness(t, core.ConfidentialityOnly, nil)
	form := url.Values{
		gdocs.FieldDocID: {"never-seen"},
		gdocs.FieldDelta: {"+secret plaintext"},
	}
	resp, err := h.ext.Client().Post(h.ts.URL+gdocs.PathDoc,
		"application/x-www-form-urlencoded", strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("status = %d, want 403", resp.StatusCode)
	}
	if strings.Contains(h.server.Observed(), "secret plaintext") {
		t.Error("plaintext delta reached the server")
	}
}

func TestMalformedUpdateBodiesBlocked(t *testing.T) {
	h := newHarness(t, core.ConfidentialityOnly, nil)
	cases := []string{
		"%zz=bad-url-encoding",
		gdocs.FieldDocID + "=d", // neither docContents nor delta
		gdocs.FieldDocID + "=d&" + gdocs.FieldDelta + "=%2Abogus",
	}
	for _, body := range cases {
		resp, err := h.ext.Client().Post(h.ts.URL+gdocs.PathDoc,
			"application/x-www-form-urlencoded", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Errorf("body %q: status %d, want 403", body, resp.StatusCode)
		}
	}
}

func TestServerErrorsPassThrough(t *testing.T) {
	// Conflicts and not-found from the server must reach the client
	// unmodified (they carry no content to decrypt).
	h := newHarness(t, core.ConfidentialityIntegrity, nil)
	client := gdocs.NewClient(h.ext.Client(), h.ts.URL, "missing-doc")
	if err := client.Load(); !errors.Is(err, gdocs.ErrNotFound) {
		t.Errorf("load missing = %v, want ErrNotFound", err)
	}
}

func TestNonDocPathsNeverReachNetwork(t *testing.T) {
	// Even with a dead base transport, blocked requests must not error:
	// they are synthesized locally without touching the network.
	deadTransport := roundTripperFunc(func(*http.Request) (*http.Response, error) {
		return nil, errors.New("network must not be touched")
	})
	opts := core.Options{Scheme: core.ConfidentialityOnly, Nonces: crypt.NewSeededNonceSource(1)}
	ext := New(deadTransport, StaticPassword("pw", opts))
	resp, err := ext.Client().Get("http://example.com/Translate")
	if err != nil {
		t.Fatalf("blocked request errored: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("status = %d, want 403", resp.StatusCode)
	}
}

type roundTripperFunc func(*http.Request) (*http.Response, error)

func (f roundTripperFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

func TestNetworkFailurePropagates(t *testing.T) {
	deadTransport := roundTripperFunc(func(*http.Request) (*http.Response, error) {
		return nil, errors.New("connection refused")
	})
	opts := core.Options{Scheme: core.ConfidentialityOnly, Nonces: crypt.NewSeededNonceSource(2)}
	ext := New(deadTransport, StaticPassword("pw", opts))
	client := gdocs.NewClient(ext.Client(), "http://example.com", "doc")
	if err := client.Create(); err == nil {
		t.Error("network failure swallowed")
	}
}

func TestStatsAccounting(t *testing.T) {
	h := newHarness(t, core.ConfidentialityOnly, nil)
	if err := h.client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	h.client.SetText("twelve chars")
	if err := h.client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	flush(t, h.ext, "private-doc")
	st := h.ext.Stats()
	if st.PlainBytesIn != 12 {
		t.Errorf("PlainBytesIn = %d, want 12", st.PlainBytesIn)
	}
	if st.CipherBytesOut <= st.PlainBytesIn {
		t.Errorf("CipherBytesOut = %d, want > plaintext (blowup)", st.CipherBytesOut)
	}
	if st.Passed != 1 { // the create
		t.Errorf("Passed = %d, want 1", st.Passed)
	}
}
