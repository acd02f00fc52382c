package bench

import (
	"fmt"
	"strings"
	"time"

	"privedit/internal/core"
	"privedit/internal/netsim"
	"privedit/internal/workload"
)

// Macro-benchmark environment (§VII-C). The paper measured end-to-end
// latency with Selenium against the live service; here each test case's
// latency is the measured client-side cost (encryption, delta
// transformation) plus the netsim model's network and server time for the
// actual message sizes.
const (
	// formOverheadBytes approximates the HTTP/form framing around the
	// document payload.
	formOverheadBytes = 100
	// ackBytes models the save acknowledgment: a compact ack, as the
	// simulated server sends for every versioned save (the new version,
	// an empty contentFromServer and hash 0). The 2011 service the paper
	// measured plainly did not pay full-document traffic per ack, or its
	// 500 KB documents could not have saved in tens of milliseconds.
	ackBytes = 200
	// initialFixed is the editor bootstrap (page load, script init)
	// included in both arms of the initial-load test case. The 2011
	// Google Documents editor took seconds to become interactive.
	initialFixed = 3 * time.Second
)

// MacroCell is one table cell: mean degradation and its deviation.
type MacroCell struct {
	MeanPct float64 // (T_with - T_without) / T_without, percent
	Dev     float64 // standard deviation of the per-trial degradations
}

// MacroRow is one operation row across schemes.
type MacroRow struct {
	Op    string
	Cells []MacroCell // parallel to MacroTable.Schemes
}

// MacroTable reproduces one block of Figure 5 (or Figure 8): performance
// degradation for one file size.
type MacroTable struct {
	Title      string
	DocLen     int
	BlockChars int
	Schemes    []core.Scheme
	Rows       []MacroRow
}

// macroOps are the rows of the paper's macro tables.
var macroOps = []struct {
	name string
	kind workload.Kind
}{
	{"initial load", 0}, // handled specially
	{"inserts only", workload.InsertsOnly},
	{"deletes only", workload.DeletesOnly},
	{"inserts & deletes", workload.InsertsAndDeletes},
}

// macroCell measures one (scheme, size, op) cell.
func macroCell(cfg Config, scheme core.Scheme, blockChars, docLen int, kind workload.Kind, initial bool, net netsim.Profile) (MacroCell, error) {
	trials := cfg.trials(30)
	gen := workload.NewGen(cfg.Seed + int64(docLen) + int64(kind)*17 + int64(scheme)*31 + int64(blockChars)*101)
	var degr Sample

	if initial {
		for i := 0; i < trials; i++ {
			doc := gen.Document(docLen)
			ed, err := editorFor(scheme, blockChars, uint64(cfg.Seed)+uint64(i)+uint64(docLen))
			if err != nil {
				return MacroCell{}, err
			}
			start := time.Now()
			transport, err := ed.Encrypt(doc)
			if err != nil {
				return MacroCell{}, err
			}
			crypto := time.Since(start)

			without := initialFixed + net.RequestTime(len(doc)+formOverheadBytes, ackBytes)
			with := initialFixed + crypto + net.RequestTime(len(transport)+formOverheadBytes, ackBytes)
			degr.Add(float64(with-without) / float64(without) * 100)
		}
		return MacroCell{MeanPct: degr.Mean(), Dev: degr.StdDev() / 100}, nil
	}

	// Editing test cases: whole-document save first (untimed), then each
	// trial performs one edit and times the incremental save.
	ed, err := editorFor(scheme, blockChars, uint64(cfg.Seed)+uint64(docLen)*3+uint64(scheme))
	if err != nil {
		return MacroCell{}, err
	}
	doc := gen.Document(docLen)
	if _, err := ed.Encrypt(doc); err != nil {
		return MacroCell{}, err
	}
	for i := 0; i < trials; i++ {
		sp := gen.Edit(ed.Plaintext(), kind)
		if sp.Del == 0 && sp.Ins == "" {
			continue
		}
		pd := sp.Delta()
		pdWire := pd.String()

		start := time.Now()
		cd, err := ed.TransformDeltaOps(pd)
		if err != nil {
			return MacroCell{}, err
		}
		crypto := time.Since(start)
		cdWire := cd.String()

		without := net.RequestTime(len(pdWire)+formOverheadBytes, ackBytes)
		with := crypto + net.RequestTime(len(cdWire)+formOverheadBytes, ackBytes)
		degr.Add(float64(with-without) / float64(without) * 100)
	}
	return MacroCell{MeanPct: degr.Mean(), Dev: degr.StdDev() / 100}, nil
}

// macroTable builds one table for a document size.
func macroTable(cfg Config, title string, docLen, blockChars int, schemes []core.Scheme, net netsim.Profile) (MacroTable, error) {
	t := MacroTable{Title: title, DocLen: docLen, BlockChars: blockChars, Schemes: schemes}
	for _, op := range macroOps {
		row := MacroRow{Op: op.name}
		for _, scheme := range schemes {
			cell, err := macroCell(cfg, scheme, blockChars, docLen, op.kind, op.name == "initial load", net)
			if err != nil {
				return MacroTable{}, err
			}
			row.Cells = append(row.Cells, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig5 reproduces Figure 5: macro-benchmark degradation for small (≈500)
// and large (≈10000 character) files, rECB and RPC, single-character
// blocks (the multi-character variant is Figure 8).
func Fig5(cfg Config) ([]MacroTable, error) {
	net := netsim.Broadband2009()
	schemes := []core.Scheme{core.ConfidentialityOnly, core.ConfidentialityIntegrity}
	small, err := macroTable(cfg, "Small (~500 characters) files", 500, 1, schemes, net)
	if err != nil {
		return nil, err
	}
	large, err := macroTable(cfg, "Large (~10000 characters) files", 10000, 1, schemes, net)
	if err != nil {
		return nil, err
	}
	return []MacroTable{small, large}, nil
}

// Fig8 reproduces Figure 8: the macro-benchmark with 8-character-block
// rECB incremental encryption on large files.
func Fig8(cfg Config) (MacroTable, error) {
	return macroTable(cfg, "Multi-character blocks (b = 8), large files",
		10000, 8, []core.Scheme{core.ConfidentialityOnly}, netsim.Broadband2009())
}

// String renders the table in the shape of the paper's Figure 5 / 8.
func (t MacroTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (block size %d)\n", t.Title, t.BlockChars)
	fmt.Fprintf(&b, "%-20s", "")
	for _, s := range t.Schemes {
		fmt.Fprintf(&b, " %10s %6s", s, "dev.")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "%-20s", row.Op)
		for _, c := range row.Cells {
			fmt.Fprintf(&b, " %9.1f%% %6.3f", c.MeanPct, c.Dev)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
