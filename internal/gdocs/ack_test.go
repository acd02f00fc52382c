package gdocs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"privedit/internal/delta"
)

// postSave sends one raw POST /Doc and returns the status and body.
func postSave(t *testing.T, ts *httptest.Server, form url.Values, saveID string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+PathDoc, strings.NewReader(form.Encode()))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if saveID != "" {
		req.Header.Set(HeaderSaveID, saveID)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", PathDoc, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, string(body)
}

// TestVersionedSaveAckIsVersionOnly pins the ack rule: a versioned save
// (full or delta, and its idempotent replay) is answered with the new
// version alone, so the response stays a few bytes however large the
// document grows. An unversioned save still gets the content echo.
func TestVersionedSaveAckIsVersionOnly(t *testing.T) {
	s, ts := newTestServer(t)
	const docID = "big"
	if err := s.Create(context.Background(), docID); err != nil {
		t.Fatalf("Create: %v", err)
	}
	const maxAck = 64
	checkAck := func(step string, status int, body string, want int) {
		t.Helper()
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step, status, body)
		}
		if len(body) >= maxAck {
			t.Errorf("%s: ack body is %d B, want < %d", step, len(body), maxAck)
		}
		ack, err := ParseAck(body)
		if err != nil {
			t.Fatalf("%s: ParseAck(%q): %v", step, body, err)
		}
		if ack != (Ack{Version: want}) {
			t.Errorf("%s: ack has %d B echo, hash %d, v%d; want version-only v%d",
				step, len(ack.ContentFromServer), ack.ContentFromServerHash, ack.Version, want)
		}
	}
	checkStored := func(step, want string, wantVersion int) {
		t.Helper()
		content, version, err := s.Content(context.Background(), docID)
		if err != nil {
			t.Fatalf("%s: Content: %v", step, err)
		}
		if content != want || version != wantVersion {
			t.Errorf("%s: stored %d B at v%d, want the client's %d B at v%d",
				step, len(content), version, len(want), wantVersion)
		}
	}

	text := strings.Repeat("0123456789abcdef", 100*1024/16)
	status, body := postSave(t, ts, url.Values{
		FieldDocID:       {docID},
		FieldDocContents: {text},
		FieldVersion:     {"0"},
	}, "full-1")
	checkAck("versioned full save", status, body, 1)
	checkStored("versioned full save", text, 1)

	d := delta.Delta{delta.RetainOp(5), delta.InsertOp("edit"), delta.DeleteOp(3)}
	next, err := d.Apply(text)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	form := url.Values{
		FieldDocID:   {docID},
		FieldDelta:   {d.String()},
		FieldVersion: {"1"},
	}
	status, body = postSave(t, ts, form, "delta-2")
	checkAck("versioned delta save", status, body, 2)
	checkStored("versioned delta save", next, 2)

	// The response was "lost": the same token replays without re-applying.
	status, body = postSave(t, ts, form, "delta-2")
	checkAck("replayed delta save", status, body, 2)
	checkStored("replayed delta save", next, 2)

	// An unversioned save cannot derive the stored text, so it keeps the echo.
	status, body = postSave(t, ts, url.Values{
		FieldDocID: {docID},
		FieldDelta: {delta.Delta{delta.DeleteOp(1)}.String()},
	}, "")
	if status != http.StatusOK {
		t.Fatalf("unversioned save: status %d: %s", status, body)
	}
	ack, err := ParseAck(body)
	if err != nil {
		t.Fatalf("unversioned save: ParseAck: %v", err)
	}
	if want := next[1:]; ack.ContentFromServer != want || ack.ContentFromServerHash != ContentHash(want) || ack.Version != 3 {
		t.Errorf("unversioned save: ack has %d B echo, hash %d, v%d; want the %d B stored text at v3",
			len(ack.ContentFromServer), ack.ContentFromServerHash, ack.Version, len(want))
	}
}

// TestAckDeltaFromServer pins the wire form of the ack: a server ack
// encodes exactly as it did before the deltaFromServer field existed,
// and the field, which only the mediating extension sets, round-trips.
func TestAckDeltaFromServer(t *testing.T) {
	s, ts := newTestServer(t)
	if err := s.Create(context.Background(), "d"); err != nil {
		t.Fatalf("Create: %v", err)
	}
	status, body := postSave(t, ts, url.Values{FieldDocID: {"d"}, FieldDocContents: {"abc"}, FieldVersion: {"0"}}, "")
	if want := "contentFromServer=&contentFromServerHash=0&version=1"; status != http.StatusOK || body != want {
		t.Errorf("versioned save ack = %d %q, want 200 %q", status, body, want)
	}
	status, body = postSave(t, ts, url.Values{FieldDocID: {"d"}, FieldDelta: {"=1\t+&"}}, "")
	if want := "contentFromServer=a%26bc&contentFromServerHash=" + strconv.FormatUint(uint64(ContentHash("a&bc")), 10) + "&version=2"; status != http.StatusOK || body != want {
		t.Errorf("unversioned save ack = %d %q, want 200 %q", status, body, want)
	}
	if ack, err := ParseAck(body); err != nil || ack.DeltaFromServer != "" {
		t.Errorf("server ack parses to (%+v, %v), want no deltaFromServer", ack, err)
	}

	merged := Ack{DeltaFromServer: delta.Delta{delta.RetainOp(2), delta.InsertOp("x&y\t=z"), delta.DeleteOp(1)}.String(), Version: 9}
	enc := merged.Encode()
	if !strings.Contains(enc, "&deltaFromServer=") {
		t.Errorf("Encode(%+v) = %q, no deltaFromServer field", merged, enc)
	}
	got, err := ParseAck(enc)
	if err != nil || got != merged {
		t.Errorf("ParseAck(%q) = (%+v, %v), want %+v", enc, got, err, merged)
	}
}

// TestAckDeltaThatDoesNotApply: an ack whose deltaFromServer does not fit
// the working copy leaves the copy as it was and ends the session, so the
// landed edit is never sent a second time.
func TestAckDeltaThatDoesNotApply(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathDoc {
			io.WriteString(w, Ack{DeltaFromServer: "=999\t+x", Version: 5}.Encode())
		}
	}))
	defer ts.Close()
	c := NewClient(ts.Client(), ts.URL, "d")
	if err := c.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	c.SetText("abc")
	if err := c.Save(); err == nil {
		t.Fatal("save with an inapplicable ack delta succeeded")
	}
	if got := c.Text(); got != "abc" {
		t.Errorf("working copy = %q after a bad ack delta, want it unchanged", got)
	}
	if err := c.Save(); err == nil || !strings.Contains(err.Error(), "no editing session") {
		t.Errorf("next save = %v, want the session ended", err)
	}
}
