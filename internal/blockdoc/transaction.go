package blockdoc

import (
	"fmt"
	"sync"

	"privedit/internal/crypt"
	"privedit/internal/delta"
	"privedit/internal/obs"
)

// Telemetry for §V-C block behaviour: how often edits split blocks apart or
// merge them away, and how fragmented the block store is. No-ops until
// obs.Enable().
var (
	metricSplices = obs.NewCounter("privedit_block_splices_total",
		"Block-range replacements performed by transform_delta.")
	metricSplits = obs.NewCounter("privedit_block_splits_total",
		"Net blocks gained by splices that rewrote existing blocks (block splits).")
	metricMerges = obs.NewCounter("privedit_block_merges_total",
		"Net blocks lost by splices that kept data blocks (block merges).")
	metricFragmentation = obs.NewGauge("privedit_fragmentation_ratio",
		"Unused block capacity fraction, 1 - chars/(blocks*b), sampled after each transform_delta.")
)

// rangeEdit records that source blocks [srcLo, srcHi) were replaced by the
// blocks currently occupying ordinals [curLo, curLo+curCnt). Ranges are
// kept sorted and non-overlapping; because delta operations move strictly
// left to right, only the most recent range can ever be touched again.
type rangeEdit struct {
	srcLo, srcHi  int
	curLo, curCnt int
}

// tx accumulates the effects of one plaintext delta (a sequence of splices)
// so a single well-formed ciphertext delta can be emitted at commit.
type tx struct {
	doc            *Document
	srcCount       int // blocks when the transaction began
	edits          []rangeEdit
	prefixChanged  bool
	trailerChanged bool
}

// metricCoalescedOps counts plaintext delta operations eliminated by
// coalescing before the splice loop (see delta.Coalesce).
var metricCoalescedOps = obs.NewCounter("privedit_delta_ops_coalesced_total",
	"Plaintext delta operations folded away by coalescing before transform_delta.")

// TransformDelta applies a plaintext delta to the encrypted document and
// returns the corresponding ciphertext delta: the paper's transform_delta
// (§V-B, Figure 2). The returned delta transforms the document's previous
// transport string into its new one; the server applies it blindly.
//
// The delta is first coalesced to burst-canonical form (delta.Coalesce),
// and each delete-insert pair at one cursor position runs as a single
// block-range splice: a replacement edit rewrites its boundary blocks
// once, not once for the delete and again for the insert.
//
//taint:sanitizer emits a ciphertext delta
func (d *Document) TransformDelta(pd delta.Delta) (delta.Delta, error) {
	if err := pd.Validate(d.Len()); err != nil {
		return nil, fmt.Errorf("blockdoc: plaintext delta: %w", err)
	}
	before := len(pd)
	pd = pd.Coalesce()
	if dropped := before - len(pd); dropped > 0 {
		metricCoalescedOps.Add(int64(dropped))
	}
	t := &tx{doc: d, srcCount: d.list.Len()}
	cursor := 0
	for i := 0; i < len(pd); i++ {
		switch op := pd[i]; op.Kind {
		case delta.Retain:
			cursor += op.N
		case delta.Insert:
			if err := t.splice(cursor, 0, op.Str); err != nil {
				return nil, err
			}
			cursor += len(op.Str)
		case delta.Delete:
			// In coalesced form a delete can only be followed by the
			// run's merged insert: fold both into one splice.
			ins := ""
			if i+1 < len(pd) && pd[i+1].Kind == delta.Insert {
				ins = pd[i+1].Str
				i++
			}
			if err := t.splice(cursor, op.N, ins); err != nil {
				return nil, err
			}
			cursor += len(ins)
		}
	}
	return t.commit()
}

// Splice performs a single edit — delete del characters at pos, then
// insert ins there — and returns the ciphertext delta for it.
//
//taint:sanitizer emits a ciphertext delta
func (d *Document) Splice(pos, del int, ins string) (delta.Delta, error) {
	return d.TransformDelta(delta.Delta{
		delta.RetainOp(pos),
		delta.DeleteOp(del),
		delta.InsertOp(ins),
	})
}

// splice replaces del characters at plaintext position pos with ins,
// updating the block index incrementally and recording the affected block
// ranges for commit.
func (t *tx) splice(pos, del int, ins string) error {
	d := t.doc
	n := d.Len()
	if pos < 0 || del < 0 || pos+del > n {
		return fmt.Errorf("%w: splice pos %d del %d in document of %d chars", ErrRange, pos, del, n)
	}
	if del == 0 && ins == "" {
		return nil
	}

	// Determine the current block range [curA, curB) to replace and the
	// partial characters that survive from the boundary blocks.
	var curA, curB int
	var prefixPart, suffixPart []byte
	switch {
	case n == 0 || pos == n:
		// Appending (or filling an empty document): no blocks touched.
		curA, curB = d.list.Len(), d.list.Len()
	default:
		first, err := d.list.FindPrimary(pos)
		if err != nil {
			return err
		}
		if del == 0 && first.Offset == 0 {
			// Pure insertion on a block boundary: splice in new blocks
			// without rewriting the right block.
			curA, curB = first.Ordinal, first.Ordinal
		} else {
			curA = first.Ordinal
			prefixPart = first.Value.Chars[:first.Offset]
			if del == 0 {
				curB = first.Ordinal + 1
				suffixPart = first.Value.Chars[first.Offset:]
			} else {
				last, err := d.list.FindPrimary(pos + del - 1)
				if err != nil {
					return err
				}
				curB = last.Ordinal + 1
				suffixPart = last.Value.Chars[last.Offset+1:]
			}
		}
	}

	// Assemble the replacement text in the document's reusable scratch
	// buffer. Codecs copy chunk bytes into blocks they own (their Splice
	// contract), so the buffer is free again once codec.Splice returns.
	need := len(prefixPart) + len(ins) + len(suffixPart)
	if cap(d.spliceText) < need {
		d.spliceText = make([]byte, 0, need)
	}
	newText := append(d.spliceText[:0], prefixPart...)
	newText = append(newText, ins...)
	newText = append(newText, suffixPart...)
	d.spliceText = newText
	chunks := d.chunkScratched(newText)

	// Collect and remove the replaced blocks.
	removed := make([]*Block, 0, curB-curA)
	_ = d.list.Each(curA, func(ord int, blk *Block, _, _ int) bool {
		if ord >= curB {
			return false
		}
		removed = append(removed, blk)
		return true
	})
	for range removed {
		if _, _, _, err := d.list.DeleteAt(curA); err != nil {
			return err
		}
	}

	// Identify surviving neighbors.
	var left, right *Block
	if curA > 0 {
		pos, err := d.list.FindOrdinal(curA - 1)
		if err != nil {
			return err
		}
		left = pos.Value
	}
	if curA < d.list.Len() {
		pos, err := d.list.FindOrdinal(curA)
		if err != nil {
			return err
		}
		right = pos.Value
	}

	added, newLeftRecord, newPrefix, newTrailer, err := d.codec.Splice(left, removed, chunks, right)
	if err != nil {
		return fmt.Errorf("blockdoc: codec splice: %w", err)
	}
	leftRewritten := false
	if newLeftRecord != nil && left != nil {
		left.Record = newLeftRecord
		leftRewritten = true
	}
	for i, blk := range added {
		if err := d.list.InsertAt(curA+i, blk, len(blk.Chars), d.recordChars); err != nil {
			return err
		}
	}
	if newPrefix != nil {
		d.schemePrefix = newPrefix
		t.prefixChanged = true
	}
	if newTrailer != nil {
		d.trailer = newTrailer
		t.trailerChanged = true
	}

	metricSplices.Inc()
	if len(removed) > 0 && len(added) > len(removed) {
		metricSplits.Add(int64(len(added) - len(removed)))
	}
	if len(added) > 0 && len(removed) > len(added) {
		metricMerges.Add(int64(len(removed) - len(added)))
	}

	t.record(curA, curB, len(added), leftRewritten)
	return nil
}

// record merges the replacement of current ordinals [curA, curB) (with
// addedCnt new blocks, optionally extended one block left for a rewritten
// neighbor) into the transaction's range edits.
func (t *tx) record(curA, curB, addedCnt int, leftRewritten bool) {
	effA := curA
	if leftRewritten {
		effA = curA - 1
	}

	if len(t.edits) > 0 {
		last := &t.edits[len(t.edits)-1]
		lastEnd := last.curLo + last.curCnt
		if effA <= lastEnd {
			// Overlaps or touches the previous range: merge.
			mergedLo := last.curLo
			srcLo := last.srcLo
			if effA < last.curLo {
				// Left-neighbor rewrite stepped one block before the
				// previous range; that block is the source block just
				// before it.
				mergedLo = effA
				srcLo = last.srcLo - (last.curLo - effA)
			}
			srcHi := last.srcHi
			mergedOldEnd := lastEnd
			if curB > lastEnd {
				srcHi += curB - lastEnd
				mergedOldEnd = curB
			}
			last.srcLo = srcLo
			last.srcHi = srcHi
			last.curLo = mergedLo
			last.curCnt = (mergedOldEnd - mergedLo) - (curB - curA) + addedCnt
			return
		}
	}

	// Disjoint new range: translate current ordinals to source ordinals by
	// undoing the shifts of all earlier replacements (all to the left).
	shift := 0
	for _, e := range t.edits {
		shift += (e.srcHi - e.srcLo) - e.curCnt
	}
	cnt := addedCnt
	if leftRewritten {
		cnt++
	}
	t.edits = append(t.edits, rangeEdit{
		srcLo:  effA + shift,
		srcHi:  curB + shift,
		curLo:  effA,
		curCnt: cnt,
	})
}

// encodePool recycles the Base32 staging buffers commit uses to encode
// record runs: one buffer per in-flight commit, shared across documents.
var encodePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// commit emits the ciphertext delta describing every change the
// transaction made, against the transport string as it was when the
// transaction began.
func (t *tx) commit() (delta.Delta, error) {
	d := t.doc
	if n := d.list.Len(); n > 0 {
		metricFragmentation.Set(1 - float64(d.Len())/float64(n*d.blockChars))
	} else {
		metricFragmentation.Set(0)
	}
	// Worst case per range edit: retain + delete + insert, plus the prefix
	// op and a possible retain + delete + insert for the trailer.
	out := make(delta.Delta, 0, 4+3*len(t.edits))

	// Prefix region.
	if t.prefixChanged {
		prefixRaw := append(d.header.encode(), d.schemePrefix...)
		out = append(out, delta.DeleteOp(d.prefixChars), delta.InsertOp(crypt.EncodeTransport(prefixRaw)))
	} else {
		out = append(out, delta.RetainOp(d.prefixChars))
	}

	// Record regions.
	prevSrc := 0
	for _, e := range t.edits {
		if e.srcLo > prevSrc {
			out = append(out, delta.RetainOp((e.srcLo-prevSrc)*d.recordChars))
		}
		if e.srcHi > e.srcLo {
			out = append(out, delta.DeleteOp((e.srcHi-e.srcLo)*d.recordChars))
		}
		if e.curCnt > 0 {
			// Encode the record run into a pooled staging buffer: one
			// string allocation for the insert payload instead of one per
			// record.
			bufp := encodePool.Get().(*[]byte)
			need := e.curCnt * d.recordChars
			if cap(*bufp) < need {
				*bufp = make([]byte, 0, need)
			}
			buf := (*bufp)[:need]
			count := 0
			if err := d.list.Each(e.curLo, func(_ int, blk *Block, _, _ int) bool {
				if count >= e.curCnt {
					return false
				}
				crypt.EncodeTransportInto(buf[count*d.recordChars:(count+1)*d.recordChars], blk.Record)
				count++
				return true
			}); err != nil {
				encodePool.Put(bufp)
				return nil, err
			}
			if count != e.curCnt {
				encodePool.Put(bufp)
				return nil, fmt.Errorf("%w: range edit expected %d blocks, found %d", ErrCorrupt, e.curCnt, count)
			}
			out = append(out, delta.InsertOp(string(buf)))
			*bufp = buf[:0]
			encodePool.Put(bufp)
		}
		prevSrc = e.srcHi
	}

	// Trailer region.
	if t.trailerChanged && d.trailerChars > 0 {
		if t.srcCount > prevSrc {
			out = append(out, delta.RetainOp((t.srcCount-prevSrc)*d.recordChars))
		}
		out = append(out, delta.DeleteOp(d.trailerChars), delta.InsertOp(crypt.EncodeTransport(d.trailer)))
	}

	return out.Normalize(), nil
}
