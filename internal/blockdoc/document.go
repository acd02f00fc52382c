package blockdoc

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"privedit/internal/crypt"
	"privedit/internal/delta"
	"privedit/internal/obs"
	"privedit/internal/skiplist"
)

// metricRecordsOpened counts the records LoadTransport decodes and
// verifies: the whole body on a first open, the changed windows on a
// re-open of an edited container.
var metricRecordsOpened = obs.NewCounter("privedit_block_records_opened_total",
	"Container records decoded and verified by LoadTransport: every record on a first open, only the changed windows on a re-open.")

// maxResync bounds how far, in records, a re-open looks past a changed
// record for the next unchanged one. Past a larger hunk the rest of the
// container is opened as one window.
const maxResync = 64

// Document is an encrypted block document: the client-side state the
// extension keeps so it can translate plaintext edits into ciphertext
// deltas ("It also maintains a copy of the state of the ciphertext
// document which is needed to transform the delta", §IV-B).
type Document struct {
	codec        Codec
	header       Header
	blockChars   int
	schemePrefix []byte // codec prefix region (r0 record / start block)
	trailer      []byte // codec trailer region (RPC checksum), may be nil

	prefixChars  int // transport chars of header+scheme prefix
	recordChars  int // transport chars per record
	trailerChars int // transport chars of trailer

	// list indexes the blocks by plaintext position (§V-C, Alg. 1). Only
	// IncE and a re-open's window walk seek, so a whole-container load
	// leaves it nil and keeps its blocks in order in loaded, their
	// characters totalling loadedLen; index builds the list from them on
	// first use. Exactly one of list and loaded holds the blocks.
	list      *skiplist.List[*Block]
	loaded    []*Block
	loadedLen int

	// spliceText is the reusable assembly buffer for splice replacement
	// text (prefixPart + insertion + suffixPart). A Document is
	// single-threaded by contract, so one scratch buffer suffices; codecs
	// copy chunk bytes into blocks they own, so the buffer can be reused
	// across splices.
	spliceText []byte
	// chunkScratch is the reusable chunk-header slice handed to the codec.
	chunkScratch [][]byte

	// transport caches the serialized container ("" when not cached), and
	// pending is the one ciphertext delta committed since (nil if none):
	// an edit stays O(edit), and Transport applies it when the container
	// is needed. A second commit drops the cache.
	transport string
	pending   delta.Delta

	// churn counts the blocks spliced or re-opened into the list since it
	// was last built whole. Each such block has small allocations of its
	// own, and the arenas of the last whole build stay pinned while any of
	// their blocks survives; reopen compacts once churn passes a quarter of
	// the list, which keeps the live heap near that of a freshly loaded
	// document.
	churn int
}

// New creates an empty encrypted document for the given codec.
// blockChars is the paper's b parameter (1..codec.MaxChars()); salt is the
// key-derivation salt recorded in the container header, and keyCheck the
// password verifier derived from the document key.
func New(codec Codec, blockChars int, salt [SaltLen]byte, keyCheck [KeyCheckLen]byte) (*Document, error) {
	if blockChars < 1 || blockChars > codec.MaxChars() {
		return nil, fmt.Errorf("blockdoc: block size %d outside 1..%d", blockChars, codec.MaxChars())
	}
	d := &Document{
		codec:      codec,
		blockChars: blockChars,
		header: Header{
			SchemeID:   codec.ID(),
			BlockChars: byte(blockChars),
			Salt:       salt,
			KeyCheck:   keyCheck,
		},
		prefixChars:  crypt.TransportLen(headerBytes + codec.PrefixBytes()),
		recordChars:  crypt.TransportLen(codec.RecordBytes()),
		trailerChars: 0,
	}
	if codec.TrailerBytes() > 0 {
		d.trailerChars = crypt.TransportLen(codec.TrailerBytes())
	}
	if err := d.LoadPlaintext(""); err != nil {
		return nil, err
	}
	return d, nil
}

// Header returns the container header.
func (d *Document) Header() Header { return d.header }

// SchemeName returns the codec's name.
func (d *Document) SchemeName() string { return d.codec.Name() }

// BlockChars returns the document's b parameter.
func (d *Document) BlockChars() int { return d.blockChars }

// Len returns the plaintext length in characters.
func (d *Document) Len() int {
	if d.list == nil {
		return d.loadedLen
	}
	return d.list.TotalPrimary()
}

// Blocks returns the number of data blocks.
func (d *Document) Blocks() int {
	if d.list == nil {
		return len(d.loaded)
	}
	return d.list.Len()
}

// TransportLen returns the length in characters of the transport string,
// without serializing it.
func (d *Document) TransportLen() int {
	return d.prefixChars + d.Blocks()*d.recordChars + d.trailerChars
}

// index returns the block skip list, building it from the blocks of the
// last whole-container load on the first call after one.
func (d *Document) index() *skiplist.List[*Block] {
	if d.list == nil {
		d.list, d.loaded = d.build(d.loaded), nil
	}
	return d.list
}

// build indexes blocks, in document order, in a new skip list.
func (d *Document) build(blocks []*Block) *skiplist.List[*Block] {
	builder := skiplist.NewBuilder[*Block](crypt.Uint64(d.header.Salt[:8]))
	builder.Grow(len(blocks))
	for _, b := range blocks {
		builder.Append(b, len(b.Chars), d.recordChars)
	}
	return builder.List()
}

// each calls fn on every block in document order.
func (d *Document) each(fn func(*Block)) {
	if d.list == nil {
		for _, b := range d.loaded {
			fn(b)
		}
		return
	}
	_ = d.list.Each(0, func(_ int, blk *Block, _, _ int) bool {
		fn(blk)
		return true
	})
}

// chunk splits text into pieces of at most b characters. Every piece is
// non-empty; text "" yields no pieces.
func (d *Document) chunk(text []byte) [][]byte {
	if len(text) == 0 {
		return nil
	}
	chunks := make([][]byte, 0, (len(text)+d.blockChars-1)/d.blockChars)
	for len(text) > d.blockChars {
		chunks = append(chunks, text[:d.blockChars])
		text = text[d.blockChars:]
	}
	chunks = append(chunks, text)
	return chunks
}

// chunkScratched is chunk backed by the document's reusable chunk-header
// slice: the headers (not the bytes they point at) are valid only until the
// next call. Used on the splice hot path, where the codec consumes the
// chunks before the next splice begins.
func (d *Document) chunkScratched(text []byte) [][]byte {
	chunks := d.chunkScratch[:0]
	for len(text) > d.blockChars {
		chunks = append(chunks, text[:d.blockChars])
		text = text[d.blockChars:]
	}
	if len(text) > 0 {
		chunks = append(chunks, text)
	}
	d.chunkScratch = chunks
	return chunks
}

// LoadPlaintext (re)builds the entire encrypted document from text: the
// scheme's full Enc function, used on the first save of an editing session.
func (d *Document) LoadPlaintext(text string) error {
	chunks := d.chunk([]byte(text))
	prefix, blocks, trailer, err := d.codec.EncryptAll(chunks)
	if err != nil {
		return fmt.Errorf("blockdoc: encrypt all: %w", err)
	}
	d.list, d.loaded, d.churn = d.build(blocks), nil, 0
	d.schemePrefix = prefix
	d.trailer = trailer
	d.transport, d.pending = "", nil
	return nil
}

// LoadTransport opens an existing container (the scheme's Dec function plus
// integrity verification), priming the document for incremental operation.
// When the container is an edit of the one the document holds — same
// header, same ring, whole records — only the changed windows of records
// are decoded and verified (see reopen); otherwise the whole container is.
// On error the document is unchanged.
func (d *Document) LoadTransport(transport string) error {
	_, err := d.load(transport, false)
	return err
}

// Reload is LoadTransport that also returns the plaintext delta from the
// text the document held to the text it now holds.
func (d *Document) Reload(transport string) (delta.Delta, error) {
	return d.load(transport, true)
}

// load is LoadTransport and Reload; only Reload pays for the plaintext
// delta of a whole-container load.
func (d *Document) load(transport string, wantDelta bool) (delta.Delta, error) {
	if pd, done, err := d.reopen(transport); done {
		return pd, err
	}
	h, err := PeekHeader(transport)
	if err != nil {
		return nil, err
	}
	if h.SchemeID != d.codec.ID() {
		// int() marks the ids as discriminators, not content.
		return nil, fmt.Errorf("%w: container scheme %d, codec %d", ErrCorrupt, int(h.SchemeID), int(d.codec.ID()))
	}
	if int(h.BlockChars) != d.blockChars {
		return nil, fmt.Errorf("%w: container block size %d, document %d", ErrCorrupt, int(h.BlockChars), d.blockChars)
	}
	if h.KeyCheck != d.header.KeyCheck {
		return nil, fmt.Errorf("%w: key check mismatch (wrong password?)", ErrCorrupt)
	}
	if len(transport) < d.prefixChars+d.trailerChars {
		return nil, fmt.Errorf("%w: transport length %d below minimum %d", ErrCorrupt, len(transport), d.prefixChars+d.trailerChars)
	}
	body := transport[d.prefixChars:]
	var trailerRaw []byte
	if d.trailerChars > 0 {
		if (len(body)-d.trailerChars)%d.recordChars != 0 {
			return nil, fmt.Errorf("%w: body of %d chars is not whole records", ErrCorrupt, len(body))
		}
		trailerRaw, err = crypt.DecodeTransport(body[len(body)-d.trailerChars:])
		if err != nil {
			return nil, fmt.Errorf("%w: trailer: %v", ErrCorrupt, err)
		}
		body = body[:len(body)-d.trailerChars]
	} else if len(body)%d.recordChars != 0 {
		return nil, fmt.Errorf("%w: body of %d chars is not whole records", ErrCorrupt, len(body))
	}
	prefixRaw, err := crypt.DecodeTransport(transport[:d.prefixChars])
	if err != nil {
		return nil, fmt.Errorf("%w: prefix: %v", ErrCorrupt, err)
	}
	if _, err := decodeHeader(prefixRaw); err != nil {
		return nil, err
	}
	schemePrefix := prefixRaw[headerBytes:]

	n := len(body) / d.recordChars
	records, err := d.decodeRecords(body, 0, n)
	if err != nil {
		return nil, err
	}
	blocks, err := d.codec.DecryptAll(schemePrefix, records, trailerRaw)
	if err != nil {
		return nil, err
	}
	var pd delta.Delta
	if wantDelta {
		pd = delta.Delta{delta.DeleteOp(d.Len()), delta.InsertOp(joinChars(blocks))}.Normalize()
	}
	chars := 0
	for _, b := range blocks {
		chars += len(b.Chars)
	}
	d.list, d.loaded, d.loadedLen, d.churn = nil, blocks, chars, 0
	d.header = h
	d.schemePrefix = schemePrefix
	d.trailer = trailerRaw
	// Not cached: the first Transport re-serializes the parse, which keeps
	// "a container equals the serialization of its parse" observable.
	d.transport, d.pending = "", nil
	metricRecordsOpened.Add(int64(n))
	return pd, nil
}

// decodeRecords decodes the n record slots of body from slot lo on, each
// in place with the zero-allocation transport decoder, into one flat
// buffer of n records back to back: the only copy of them the codec's Dec
// kernel reads and the blocks keep.
func (d *Document) decodeRecords(body string, lo, n int) ([]byte, error) {
	rb, rc := d.codec.RecordBytes(), d.recordChars
	raw := make([]byte, n*rb)
	for i := 0; i < n; i++ {
		if err := crypt.DecodeTransportInto(raw[i*rb:(i+1)*rb], body[(lo+i)*rc:(lo+i+1)*rc]); err != nil {
			return nil, fmt.Errorf("%w: record %d: %v", ErrCorrupt, lo+i, err)
		}
	}
	return raw, nil
}

// joinChars concatenates the blocks' characters.
func joinChars(blocks []*Block) string {
	var b strings.Builder
	for _, blk := range blocks {
		b.Write(blk.Chars)
	}
	return b.String()
}

// reopen is LoadTransport's incremental path. Records are fixed width, so
// the held container's record slots and the new one's are walked side by
// side, past each mismatch to the nearest equal pair (resync): equal slots
// survive, and the runs between them are the changed windows. A changed
// prefix puts the first window at the head, where the prefix links in.
// Only the windows' records are decoded and opened (the codec's Reopen),
// only their spans of the skip list are replaced, and the plaintext delta
// is read off them. done is false, with the document untouched, when the
// whole-container path must decide: another header or ring, a body that is
// not whole records, a slot that does not decode, or no record survives.
func (d *Document) reopen(transport string) (pd delta.Delta, done bool, err error) {
	old := d.Transport()
	pc, rc, tc := d.prefixChars, d.recordChars, d.trailerChars
	if len(transport) < pc+tc || (len(transport)-pc-tc)%rc != 0 {
		return nil, false, nil
	}
	prefixChanged := transport[:pc] != old[:pc]
	oldBody, newBody := old[pc:len(old)-tc], transport[pc:len(transport)-tc]
	oldSlot := func(i int) string { return oldBody[i*rc : (i+1)*rc] }
	newSlot := func(j int) string { return newBody[j*rc : (j+1)*rc] }
	oldN, newN := len(oldBody)/rc, len(newBody)/rc
	for step := 64; step > 0; step /= 8 { // the shared tail survives
		for oldN >= step && newN >= step && oldBody[(oldN-step)*rc:oldN*rc] == newBody[(newN-step)*rc:newN*rc] {
			oldN, newN = oldN-step, newN-step
		}
	}
	type span struct{ oldLo, oldHi, newLo, newHi int }
	var spans []span
	opened, i, j, wi, wj := 0, 0, 0, 0, 0
	for i < oldN && j < newN {
		if oldSlot(i) != newSlot(j) && !resync(oldSlot, newSlot, &i, &j, oldN, newN) {
			break
		}
		if i > wi || j > wj || (prefixChanged && len(spans) == 0) {
			spans, opened = append(spans, span{wi, i, wj, j}), opened+j-wj
		}
		n := sameSlots(oldBody[i*rc:oldN*rc], newBody[j*rc:newN*rc], rc)
		i, j = i+n, j+n
		wi, wj = i, j
	}
	if wi < oldN || wj < newN || (prefixChanged && len(spans) == 0) {
		spans, opened = append(spans, span{wi, oldN, wj, newN}), opened+newN-wj
	}
	if opened > 0 && opened == len(newBody)/rc {
		return nil, false, nil
	}
	var prefix []byte
	if prefixChanged {
		raw, err := crypt.DecodeTransport(transport[:pc])
		if err != nil || !bytes.Equal(raw[:headerBytes], d.header.encode()) {
			return nil, false, nil
		}
		prefix = raw[headerBytes:]
	}
	trailer := d.trailer
	if newT := transport[len(transport)-tc:]; newT != old[len(old)-tc:] {
		if trailer, err = crypt.DecodeTransport(newT); err != nil {
			return nil, false, nil
		}
	}
	list := d.index()
	windows := make([]Window, len(spans))
	at := make([]int, len(spans)) // plaintext offset of each window
	for w, sp := range spans {
		win := &windows[w]
		if win.Records, err = d.decodeRecords(newBody, sp.newLo, sp.newHi-sp.newLo); err != nil {
			return nil, false, nil
		}
		at[w] = d.Len()
		if pos, err := list.FindOrdinal(sp.oldLo); err == nil {
			at[w] = pos.BeforeW1
		}
		_ = list.Each(sp.oldLo, func(ord int, blk *Block, _, _ int) bool {
			if ord == sp.oldHi {
				win.Right = blk
				return false
			}
			win.Removed = append(win.Removed, blk)
			return true
		})
	}
	added, err := d.codec.Reopen(prefix, windows, trailer)
	if errors.Is(err, ErrNotSuccessor) {
		return nil, false, nil
	}
	if err != nil {
		return nil, true, err
	}

	// Read the plaintext delta off the windows, then replace their spans
	// from the last one back, so the ordinals of the earlier ones hold.
	cursor, next := 0, 0
	for w, win := range windows {
		del := 0
		for _, b := range win.Removed {
			del += len(b.Chars)
		}
		n := spans[w].newHi - spans[w].newLo
		pd = append(pd, delta.RetainOp(at[w]-cursor), delta.DeleteOp(del), delta.InsertOp(joinChars(added[next:next+n])))
		cursor, next = at[w]+del, next+n
	}
	for w := len(spans) - 1; w >= 0; w-- {
		win, n := windows[w], spans[w].newHi-spans[w].newLo
		for range win.Removed {
			if _, _, _, err := list.DeleteAt(spans[w].oldLo); err != nil {
				return nil, true, err
			}
		}
		for i, blk := range added[len(added)-n:] {
			if err := list.InsertAt(spans[w].oldLo+i, blk, len(blk.Chars), d.recordChars); err != nil {
				return nil, true, err
			}
		}
		added = added[:len(added)-n]
	}
	if prefix != nil {
		d.schemePrefix = prefix
	}
	d.trailer = trailer
	d.transport, d.pending = transport, nil
	if d.churn += opened; d.churn > list.Len()/4 {
		d.compact()
	}
	metricRecordsOpened.Add(int64(opened))
	return pd.Normalize(), true, nil
}

// compact rebuilds the block list over one arena, as a whole-container
// load builds it, so the allocations incremental edits left pinned can
// go. It copies bytes only: no record is re-encrypted or re-opened.
func (d *Document) compact() {
	n, rb, b := d.list.Len(), d.codec.RecordBytes(), d.blockChars
	buf, slab := make([]byte, n*(rb+b)), make([]Block, n)
	builder := skiplist.NewBuilder[*Block](crypt.Uint64(d.header.Salt[:8]))
	builder.Grow(n)
	_ = d.list.Each(0, func(i int, blk *Block, _, _ int) bool {
		at := buf[i*(rb+b):]
		slab[i] = Block{Record: at[:rb:rb], Chars: at[rb : rb+len(blk.Chars) : rb+len(blk.Chars)], Nonce: blk.Nonce}
		copy(slab[i].Record, blk.Record)
		copy(slab[i].Chars, blk.Chars)
		builder.Append(&slab[i], len(blk.Chars), d.recordChars)
		return true
	})
	d.list, d.churn = builder.List(), 0
}

// sameSlots returns how many leading rc-wide slots a and b share, comparing
// runs of 64 and 8 slots before single ones.
func sameSlots(a, b string, rc int) int {
	n, k := 0, min(len(a), len(b))/rc
	for step := 64; step > 0; step /= 8 {
		for n+step <= k && a[n*rc:(n+step)*rc] == b[n*rc:(n+step)*rc] {
			n += step
		}
	}
	return n
}

// resync moves the cursors *i and *j past a mismatch to the nearest pair of
// equal slots, at most maxResync slots on from where they stand, in order
// of the slots skipped on both sides together. It reports false when there
// is none.
func resync(oldSlot, newSlot func(int) string, i, j *int, oldHi, newHi int) bool {
	for dist := 1; dist <= maxResync; dist++ {
		for a := max(0, dist-(newHi-1-*j)); a <= dist && *i+a < oldHi; a++ {
			if oldSlot(*i+a) == newSlot(*j+dist-a) {
				*i, *j = *i+a, *j+dist-a
				return true
			}
		}
	}
	return false
}

// Plaintext reassembles the document text from the in-memory blocks.
func (d *Document) Plaintext() string {
	var b strings.Builder
	b.Grow(d.Len())
	d.each(func(blk *Block) { b.Write(blk.Chars) })
	return b.String()
}

// Transport returns the full ciphertext container: what the server stores
// in place of the plaintext document, cached or else re-serialized.
//
//taint:sanitizer encodes encrypted records only
func (d *Document) Transport() string {
	if d.pending != nil {
		d.transport, _ = d.pending.Apply(d.transport)
		d.pending = nil
	}
	if d.transport == "" {
		d.transport = d.serialize()
	}
	return d.transport
}

// serialize encodes the container from the block list. Every record
// occupies a fixed character slot, so each record is encoded into its slot
// during the list walk itself — no per-record string, no gather.
//
//taint:sanitizer encodes encrypted records only
func (d *Document) serialize() string {
	buf := make([]byte, d.TransportLen())
	prefixRaw := append(d.header.encode(), d.schemePrefix...)
	crypt.EncodeTransportInto(buf[:d.prefixChars], prefixRaw)
	off := d.prefixChars
	d.each(func(blk *Block) {
		crypt.EncodeTransportInto(buf[off:off+d.recordChars], blk.Record)
		off += d.recordChars
	})
	if d.trailerChars > 0 {
		crypt.EncodeTransportInto(buf[len(buf)-d.trailerChars:], d.trailer)
	}
	return string(buf)
}

// SelfCheck round-trips the document through its own serialized form,
// exercising the codec's verification (for RPC, the full integrity check).
func (d *Document) SelfCheck() error {
	probe, err := New(d.codec, d.blockChars, d.header.Salt, d.header.KeyCheck)
	if err != nil {
		return err
	}
	if err := probe.LoadTransport(d.Transport()); err != nil {
		return err
	}
	if probe.Plaintext() != d.Plaintext() {
		return fmt.Errorf("%w: reloaded plaintext differs", ErrIntegrity)
	}
	return nil
}

// Stats summarizes the document for the evaluation harness.
type Stats struct {
	Scheme       string
	BlockChars   int
	PlainLen     int
	Blocks       int
	TransportLen int
	AvgFill      float64 // mean characters per block
	Blowup       float64 // transport chars per plaintext char
}

// Stats returns current document statistics.
func (d *Document) Stats() Stats {
	s := Stats{
		Scheme:       d.codec.Name(),
		BlockChars:   d.blockChars,
		PlainLen:     d.Len(),
		Blocks:       d.Blocks(),
		TransportLen: d.TransportLen(),
	}
	if s.Blocks > 0 {
		s.AvgFill = float64(s.PlainLen) / float64(s.Blocks)
	}
	if s.PlainLen > 0 {
		s.Blowup = float64(s.TransportLen) / float64(s.PlainLen)
	}
	return s
}
