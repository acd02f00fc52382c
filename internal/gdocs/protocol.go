// Package gdocs simulates the 2011 Google Documents client/server update
// protocol that Huang & Evans reverse engineered (§IV-A): an editing
// session is opened with a POST to /Doc?docID=id; the first save carries
// the entire document in the docContents field; every subsequent save
// carries only a delta; and the server answers each update with an Ack
// holding contentFromServer and contentFromServerHash. Here those two
// fields are filled only for an unversioned save (no version field): a
// versioned save was applied to exactly the state its client holds, so
// the ack carries the new version alone — what the client cannot derive,
// and nothing that grows with the document. One more field,
// deltaFromServer, only ever comes from the mediating extension: when it
// merges a stale delta save over edits the client had not seen, the ack
// carries those edits as a delta for the client's working copy. The
// server never sets it. The server is, as
// the paper puts it, "a glorified data store": none of its computation
// depends on the document text, which is exactly why the mediating
// extension can swap the text for ciphertext.
//
// The package provides both sides: a Server (an http.Handler backed by an
// in-memory document store, with the feature endpoints the paper lists),
// and a Client that simulates the browser application (local edits, save,
// autosave, load).
package gdocs

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"strconv"
)

// Protocol paths. /Doc mirrors the paper's http://docs.google.com/Doc
// endpoint; the feature endpoints model the server-side features of
// §VII-A that stop working once the server only sees ciphertext.
const (
	PathDoc       = "/Doc"
	PathCreate    = "/DocCreate"
	PathTranslate = "/Translate"
	PathSpell     = "/SpellCheck"
	PathDrawing   = "/Drawing"
	PathExport    = "/ExportAs"
)

// Form field names, as in the reverse-engineered protocol.
const (
	FieldDocID       = "docID"
	FieldDocContents = "docContents"
	FieldDelta       = "delta"
	FieldVersion     = "version"
	// FieldSince is a GET /Doc query parameter: when present, the server
	// answers with the deltas applied after that version (a catch-up fetch)
	// instead of the full content, when its history still covers the span.
	FieldSince = "since"
	// FieldCatchupDelta is the repeated field carrying each missed delta in
	// a catch-up response body, oldest first.
	FieldCatchupDelta = "d"
)

// Response headers.
const (
	// HeaderDocVersion carries the stored document version on GET /Doc
	// responses (a simulation convenience; the 2011 protocol embedded the
	// version in the page).
	HeaderDocVersion = "X-Doc-Version"
	// HeaderDegraded marks a response the mediating extension synthesized
	// locally while the document's round trips were failing: the save is
	// queued, not yet durable on the server.
	HeaderDegraded = "X-Privedit-Degraded"
	// HeaderDeltas marks a GET /Doc response whose body is a form-encoded
	// catch-up (FieldVersion plus zero or more FieldCatchupDelta entries,
	// oldest first) rather than raw document content.
	HeaderDeltas = "X-Doc-Deltas"
	// HeaderSaveID carries a client-chosen idempotency token on update
	// POSTs. If the server already holds the token in a document's recent
	// history it acknowledges the earlier application instead of applying
	// the update twice — which makes "response lost but save applied"
	// faults safe to retry.
	HeaderSaveID = "X-Privedit-Save-Id"
	// HeaderRetryable marks a rejection the server considers transient —
	// an admission-control 429/503 during rate limiting or drain. The
	// mediator's writer counts such a response in its failure streak and
	// re-sends the save no sooner than the accompanying Retry-After hint.
	HeaderRetryable = "X-Privedit-Retryable"
	// HeaderClient carries the requester's self-declared client id, the
	// key the server's per-client token-bucket rate limiter buckets by
	// (falling back to the remote address when absent).
	HeaderClient = "X-Privedit-Client"
)

// Catchup is a parsed catch-up response: the deltas applied after the
// requested version, oldest first, and the version they lead to.
type Catchup struct {
	Deltas  []string
	Version int
}

// Encode serializes the catch-up as a form-encoded body.
func (c Catchup) Encode() string {
	v := url.Values{}
	v.Set(FieldVersion, strconv.Itoa(c.Version))
	for _, d := range c.Deltas {
		v.Add(FieldCatchupDelta, d)
	}
	return v.Encode()
}

// ParseCatchup decodes a form-encoded catch-up body.
func ParseCatchup(body string) (Catchup, error) {
	v, err := url.ParseQuery(body)
	if err != nil {
		return Catchup{}, fmt.Errorf("gdocs: parse catchup: %w", err)
	}
	version, err := strconv.Atoi(v.Get(FieldVersion))
	if err != nil {
		return Catchup{}, fmt.Errorf("gdocs: parse catchup version: %w", err)
	}
	return Catchup{Deltas: v[FieldCatchupDelta], Version: version}, nil
}

// Ack is the server's response to a content update. The paper found the
// client "works flawlessly when the values are replaced with an empty
// string for contentFromServer, and 0 for contentFromServerHash", and
// that is the ack a versioned save gets: Ack{Version: n}, encoded as
// contentFromServer=&contentFromServerHash=0&version=n. The client knew
// the base version and sent the edit, so it already holds the stored
// text. An unversioned save (a paper-era client, SaveRawDelta) cannot
// derive it, so its ack echoes the stored content and its hash.
//
// DeltaFromServer is the delta counterpart of contentFromServer: set only
// by the mediating extension when it merged a stale delta save over the
// edits the client had not seen, it holds those edits transformed over
// the client's delta, which the client applies to its working copy to
// reach the merged text. The field is omitted when empty, so every server
// ack encodes as before.
type Ack struct {
	ContentFromServer     string
	ContentFromServerHash uint32
	DeltaFromServer       string
	Version               int
}

// Encode serializes the Ack as a form-encoded body.
func (a Ack) Encode() string {
	v := url.Values{}
	v.Set("contentFromServer", a.ContentFromServer)
	v.Set("contentFromServerHash", strconv.FormatUint(uint64(a.ContentFromServerHash), 10))
	if a.DeltaFromServer != "" {
		v.Set("deltaFromServer", a.DeltaFromServer)
	}
	v.Set("version", strconv.Itoa(a.Version))
	return v.Encode()
}

// ParseAck decodes a form-encoded Ack body.
func ParseAck(body string) (Ack, error) {
	v, err := url.ParseQuery(body)
	if err != nil {
		return Ack{}, fmt.Errorf("gdocs: parse ack: %w", err)
	}
	hash, err := strconv.ParseUint(v.Get("contentFromServerHash"), 10, 32)
	if err != nil {
		return Ack{}, fmt.Errorf("gdocs: parse ack hash: %w", err)
	}
	version, err := strconv.Atoi(v.Get("version"))
	if err != nil {
		return Ack{}, fmt.Errorf("gdocs: parse ack version: %w", err)
	}
	return Ack{
		ContentFromServer:     v.Get("contentFromServer"),
		ContentFromServerHash: uint32(hash),
		DeltaFromServer:       v.Get("deltaFromServer"),
		Version:               version,
	}, nil
}

// ContentHash is the server's content digest (stands in for whatever the
// 2011 service used; the extension zeroes it out anyway).
func ContentHash(content string) uint32 {
	h := fnv.New32a()
	_, _ = h.Write([]byte(content))
	return h.Sum32()
}
