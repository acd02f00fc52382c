package gdocs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
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
