package gdocs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"privedit/internal/delta"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestAckRoundTrip(t *testing.T) {
	a := Ack{ContentFromServer: "text & more = stuff", ContentFromServerHash: 12345, Version: 7}
	got, err := ParseAck(a.Encode())
	if err != nil {
		t.Fatalf("ParseAck: %v", err)
	}
	if got != a {
		t.Errorf("round trip = %+v, want %+v", got, a)
	}
}

func TestParseAckErrors(t *testing.T) {
	for _, body := range []string{"%zz", "contentFromServerHash=x&version=1", "contentFromServerHash=1&version=x"} {
		if _, err := ParseAck(body); err == nil {
			t.Errorf("ParseAck(%q) accepted", body)
		}
	}
}

func TestServerCreateAndContent(t *testing.T) {
	s := NewServer()
	if err := s.Create(context.Background(), "d1"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := s.Create(context.Background(), "d1"); err == nil {
		t.Error("duplicate Create accepted")
	}
	content, version, err := s.Content(context.Background(), "d1")
	if err != nil || content != "" || version != 0 {
		t.Errorf("fresh doc = (%q,%d,%v)", content, version, err)
	}
	if _, _, err := s.Content(context.Background(), "nope"); err == nil {
		t.Error("Content of unknown doc accepted")
	}
}

func TestServerSetAndDelta(t *testing.T) {
	s := NewServer()
	if err := s.Create(context.Background(), "d"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	ack, err := s.SetContents(context.Background(), "d", "abcdefg", -1)
	if err != nil {
		t.Fatalf("SetContents: %v", err)
	}
	if ack.Version != 1 || ack.ContentFromServer != "abcdefg" {
		t.Errorf("ack = %+v", ack)
	}
	if ack.ContentFromServerHash != ContentHash("abcdefg") {
		t.Error("ack hash mismatch")
	}
	// Paper example delta.
	ack, err = s.ApplyDelta(context.Background(), "d", "=2\t-3\t+uv\t=2\t+w", -1)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if ack.ContentFromServer != "abuvfgw" || ack.Version != 2 {
		t.Errorf("after delta = %+v", ack)
	}
}

func TestServerDeltaConflict(t *testing.T) {
	s := NewServer()
	if err := s.Create(context.Background(), "d"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s.SetContents(context.Background(), "d", "short", -1); err != nil {
		t.Fatalf("SetContents: %v", err)
	}
	if _, err := s.ApplyDelta(context.Background(), "d", "=100\t-1", -1); err == nil {
		t.Error("stale delta accepted")
	}
	if _, err := s.ApplyDelta(context.Background(), "d", "*garbage*", -1); err == nil {
		t.Error("malformed delta accepted")
	}
}

func TestServerSizeLimit(t *testing.T) {
	s := NewServer()
	s.SetMaxBytes(10)
	if err := s.Create(context.Background(), "d"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s.SetContents(context.Background(), "d", strings.Repeat("x", 11), -1); err == nil {
		t.Error("oversized SetContents accepted")
	}
	if _, err := s.SetContents(context.Background(), "d", strings.Repeat("x", 10), -1); err != nil {
		t.Errorf("at-limit SetContents rejected: %v", err)
	}
	if _, err := s.ApplyDelta(context.Background(), "d", "+y", -1); err == nil {
		t.Error("delta pushing doc over the limit accepted")
	}
}

func TestServerObservation(t *testing.T) {
	s := NewServer()
	s.EnableObservation()
	if err := s.Create(context.Background(), "d"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if _, err := s.SetContents(context.Background(), "d", "seen-by-server", -1); err != nil {
		t.Fatalf("SetContents: %v", err)
	}
	if !strings.Contains(s.Observed(), "seen-by-server") {
		t.Error("observation did not record content")
	}
}

func TestClientSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	c := NewClient(ts.Client(), ts.URL, "doc1")

	if err := c.Save(); err == nil {
		t.Error("Save before session accepted")
	}
	if err := c.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := c.Insert(0, "hello world"); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if !c.Dirty() {
		t.Error("client not dirty after edit")
	}
	if err := c.Save(); err != nil { // full save
		t.Fatalf("first Save: %v", err)
	}
	if c.Dirty() {
		t.Error("client dirty after save")
	}
	if err := c.Replace(6, 5, "gopher"); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if err := c.Save(); err != nil { // delta save
		t.Fatalf("second Save: %v", err)
	}
	if c.Version() != 2 {
		t.Errorf("version = %d, want 2", c.Version())
	}

	// Another client loads and sees the same text.
	c2 := NewClient(ts.Client(), ts.URL, "doc1")
	if err := c2.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if c2.Text() != "hello gopher" {
		t.Errorf("second client text = %q", c2.Text())
	}
}

func TestClientDeltaSavesAreIncremental(t *testing.T) {
	s, ts := newTestServer(t)
	c := NewClient(ts.Client(), ts.URL, "doc")
	if err := c.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	base := strings.Repeat("all work and no play makes jack a dull boy\n", 100)
	c.SetText(base)
	if err := c.Save(); err != nil {
		t.Fatalf("full save: %v", err)
	}
	if err := c.Insert(2000, "REDRUM "); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	pending := c.PendingDelta()
	if pending.InsertLen() > 20 {
		t.Errorf("pending delta inserts %d chars, want small", pending.InsertLen())
	}
	if err := c.Save(); err != nil {
		t.Fatalf("delta save: %v", err)
	}
	content, _, err := s.Content(context.Background(), "doc")
	if err != nil {
		t.Fatalf("Content: %v", err)
	}
	if content != c.Text() {
		t.Error("server and client diverged")
	}
}

func TestClientEditBoundsChecked(t *testing.T) {
	_, ts := newTestServer(t)
	c := NewClient(ts.Client(), ts.URL, "doc")
	if err := c.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if err := c.Insert(5, "x"); err == nil {
		t.Error("out-of-range insert accepted")
	}
	if err := c.Delete(0, 5); err == nil {
		t.Error("out-of-range delete accepted")
	}
}

// TestReplaceEqualsDeleteThenInsert pins Replace's one-copy splice to
// the Delete-then-Insert it stands for: same text after, and on a bad
// range the same error, with the working copy untouched.
func TestReplaceEqualsDeleteThenInsert(t *testing.T) {
	const doc = "hello wörld"
	cases := []struct {
		pos, n int
		text   string
	}{
		{0, 0, "x"}, {0, 5, "HI"}, {6, 6, ""}, {len(doc), 0, "!"}, {7, 2, "o"}, {3, 2, ""},
		{-1, 0, "x"}, {0, -1, "x"}, {10, 3, "x"}, {len(doc) + 1, 0, "x"},
	}
	for _, tc := range cases {
		replaced := NewClient(nil, "", "doc")
		replaced.SetText(doc)
		err := replaced.Replace(tc.pos, tc.n, tc.text)

		split := NewClient(nil, "", "doc")
		split.SetText(doc)
		wantErr := split.Delete(tc.pos, tc.n)
		if wantErr == nil {
			wantErr = split.Insert(tc.pos, tc.text)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("Replace(%d, %d, %q) error %v, Delete+Insert %v", tc.pos, tc.n, tc.text, err, wantErr)
		}
		if got, want := replaced.Text(), split.Text(); got != want {
			t.Errorf("Replace(%d, %d, %q) = %q, Delete+Insert = %q", tc.pos, tc.n, tc.text, got, want)
		}
	}
}

func TestSimultaneousEditingConflicts(t *testing.T) {
	// §VII-A: two clients editing at once; the second client's delta is
	// computed against stale content and the server rejects it.
	_, ts := newTestServer(t)
	a := NewClient(ts.Client(), ts.URL, "shared")
	if err := a.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	a.SetText("the original shared document body")
	if err := a.Save(); err != nil {
		t.Fatalf("a.Save: %v", err)
	}

	b := NewClient(ts.Client(), ts.URL, "shared")
	if err := b.Load(); err != nil {
		t.Fatalf("b.Load: %v", err)
	}

	// a edits and saves; b edits from the old text and saves second.
	if err := a.Insert(0, "A:"); err != nil {
		t.Fatal(err)
	}
	if err := a.Save(); err != nil {
		t.Fatalf("a.Save: %v", err)
	}
	if err := b.Delete(0, 12); err != nil {
		t.Fatal(err)
	}
	if err := b.Save(); err == nil {
		t.Error("conflicting save accepted; want conflict")
	} else if !errors.Is(err, ErrConflict) {
		t.Errorf("conflict = %v, want ErrConflict", err)
	}
}

func TestPassiveReaderRefresh(t *testing.T) {
	// §VII-A: "every passive reader gets automatic content refreshing."
	_, ts := newTestServer(t)
	w := NewClient(ts.Client(), ts.URL, "shared")
	if err := w.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	w.SetText("v1")
	if err := w.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	r := NewClient(ts.Client(), ts.URL, "shared")
	if err := r.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	w.SetText("v1 then v2")
	if err := w.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if err := r.Refresh(); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if r.Text() != "v1 then v2" {
		t.Errorf("reader text = %q", r.Text())
	}
	// A dirty reader cannot silently refresh.
	if err := r.Insert(0, "local"); err != nil {
		t.Fatal(err)
	}
	if err := r.Refresh(); !errors.Is(err, ErrConflict) {
		t.Errorf("dirty refresh = %v, want ErrConflict", err)
	}
}

func TestFeatureEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	c := NewClient(ts.Client(), ts.URL, "doc")
	if err := c.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	c.SetText("some words and one extraordinarily-long-word here")
	if err := c.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	out, err := c.Feature(PathSpell)
	if err != nil {
		t.Fatalf("spell: %v", err)
	}
	if !strings.Contains(out, "extraordinarily-long-word") {
		t.Errorf("spell output %q", out)
	}
	out, err = c.Feature(PathTranslate)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if !strings.Contains(out, "SOME WORDS") {
		t.Errorf("translate output %q", out)
	}
	if _, err := c.Feature(PathExport); err != nil {
		t.Errorf("export: %v", err)
	}
	if _, err := c.Feature(PathDrawing); err != nil {
		t.Errorf("drawing: %v", err)
	}
}

func TestSaveRawDelta(t *testing.T) {
	s, ts := newTestServer(t)
	c := NewClient(ts.Client(), ts.URL, "doc")
	if err := c.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	c.SetText("abcdefg")
	if err := c.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	ack, err := c.SaveRawDelta(delta.Delta{delta.RetainOp(2), delta.DeleteOp(5)})
	if err != nil {
		t.Fatalf("SaveRawDelta: %v", err)
	}
	if ack.ContentFromServer != "ab" {
		t.Errorf("raw delta result %q", ack.ContentFromServer)
	}
	content, _, err := s.Content(context.Background(), "doc")
	if err != nil || content != "ab" {
		t.Errorf("server content = (%q, %v)", content, err)
	}
}

func TestAutosave(t *testing.T) {
	s, ts := newTestServer(t)
	c := NewClient(ts.Client(), ts.URL, "doc")
	if err := c.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	var mu sync.Mutex
	var errs []error
	stop := c.StartAutosave(5*time.Millisecond, func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	})
	defer stop()
	c.SetText("autosaved content")
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if content, _, _ := s.Content(context.Background(), "doc"); content == "autosaved content" {
			mu.Lock()
			defer mu.Unlock()
			if len(errs) > 0 {
				t.Errorf("autosave errors: %v", errs)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("autosave never reached the server")
}

func TestHTTPErrorMapping(t *testing.T) {
	_, ts := newTestServer(t)
	c := NewClient(ts.Client(), ts.URL, "missing")
	if err := c.Load(); !errors.Is(err, ErrNotFound) {
		t.Errorf("load missing = %v, want ErrNotFound", err)
	}
	resp, err := http.Get(ts.URL + "/bogus")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown endpoint status = %d", resp.StatusCode)
	}
}

// TestGetDocContentLength: a GET /Doc response declares its body length,
// for an empty document, for a container past net/http's write buffer
// (which would otherwise go out chunked, with no length), and for a
// delta catch-up; ReadBody returns exactly that body.
func TestGetDocContentLength(t *testing.T) {
	s, ts := newTestServer(t)
	ctx := context.Background()
	if err := s.Create(ctx, "empty"); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(ctx, "full"); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("ABCDEFGH234567", 10000)
	if _, err := s.SetContents(ctx, "full", big, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ApplyDelta(ctx, "full", "=5\t+XY", -1); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, query, want string }{
		{"empty document", "docID=empty", ""},
		{"non-empty document", "docID=full", big[:5] + "XY" + big[5:]},
		{"catch-up", "docID=full&since=1", Catchup{Deltas: []string{"=5\t+XY"}, Version: 2}.Encode()},
	} {
		resp, err := ts.Client().Get(ts.URL + PathDoc + "?" + c.query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := ReadBody(resp)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: read: %v", c.name, err)
		}
		if body != c.want {
			t.Fatalf("%s: body of %d bytes, want %d", c.name, len(body), len(c.want))
		}
		if resp.ContentLength != int64(len(body)) || resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) {
			t.Fatalf("%s: Content-Length %d (header %q), body %d bytes", c.name, resp.ContentLength, resp.Header.Get("Content-Length"), len(body))
		}
	}
}
