package bench

import (
	"strings"
	"testing"

	"privedit/internal/core"
)

func quickCfg() Config { return Config{Trials: 3, Seed: 42} }

func TestSampleStats(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.StdDev() != 0 {
		t.Error("empty sample stats nonzero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if got := s.Mean(); got != 5 {
		t.Errorf("Mean = %f", got)
	}
	// Sample stddev of that classic set is ~2.138.
	if got := s.StdDev(); got < 2.0 || got > 2.3 {
		t.Errorf("StdDev = %f", got)
	}
}

func TestFig4Runs(t *testing.T) {
	for _, scheme := range []core.Scheme{core.ConfidentialityOnly, core.ConfidentialityIntegrity} {
		res, err := Fig4(quickCfg(), scheme)
		if err != nil {
			t.Fatalf("Fig4(%v): %v", scheme, err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("Fig4 rows = %d", len(res.Rows))
		}
		for _, row := range res.Rows {
			if row.PerCharMicros <= 0 {
				t.Errorf("%v/%s: per-char time %f", scheme, row.Op, row.PerCharMicros)
			}
		}
		if !strings.Contains(res.String(), "Figure 4") {
			t.Error("Fig4 String() malformed")
		}
	}
}

func TestFig4IncrementalBeatsFullPerChar(t *testing.T) {
	// The reason incremental encryption exists: per *changed* character it
	// must not be wildly worse than full encryption per character, and
	// per-edit it touches far less data. Verify the magnitude is sane:
	// incremental per-char cost within 100x of full encryption per-char
	// (it pays O(log n) index work per edit).
	res, err := Fig4(Config{Trials: 5, Seed: 7}, core.ConfidentialityIntegrity)
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	enc := res.Rows[0].PerCharMicros
	inc := res.Rows[2].PerCharMicros
	if inc > enc*100 {
		t.Errorf("incremental %f us/char vs enc %f us/char: index overhead too large", inc, enc)
	}
}

func TestFig5Runs(t *testing.T) {
	tables, err := Fig5(quickCfg())
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	if len(tables) != 2 {
		t.Fatalf("Fig5 tables = %d", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) != 4 {
			t.Errorf("%s: rows = %d", tab.Title, len(tab.Rows))
		}
		for _, row := range tab.Rows {
			if len(row.Cells) != 2 {
				t.Errorf("%s/%s: cells = %d", tab.Title, row.Op, len(row.Cells))
			}
			for _, c := range row.Cells {
				if c.MeanPct < 0 {
					t.Errorf("%s/%s: negative degradation %f", tab.Title, row.Op, c.MeanPct)
				}
			}
		}
		if !strings.Contains(tab.String(), "initial load") {
			t.Error("table String() missing rows")
		}
	}
	// Paper shape: initial load dominates the editing operations.
	large := tables[1]
	if large.Rows[0].Cells[0].MeanPct <= large.Rows[1].Cells[0].MeanPct {
		t.Errorf("initial load (%f%%) not above inserts (%f%%)",
			large.Rows[0].Cells[0].MeanPct, large.Rows[1].Cells[0].MeanPct)
	}
	// Paper shape: RPC costs at least as much as rECB on initial load
	// (bigger records).
	if large.Rows[0].Cells[1].MeanPct < large.Rows[0].Cells[0].MeanPct {
		t.Errorf("RPC initial load (%f%%) below rECB (%f%%)",
			large.Rows[0].Cells[1].MeanPct, large.Rows[0].Cells[0].MeanPct)
	}
}

func TestFig6Runs(t *testing.T) {
	res, err := Fig6(Config{Trials: 2, Seed: 1})
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("Fig6 rows = %d", len(res.Rows))
	}
	// Paper shape: whole-document encryption gets cheaper per char as the
	// block size grows (fewer AES blocks per char).
	if res.Rows[7].EncPerCharUs >= res.Rows[0].EncPerCharUs {
		t.Errorf("enc cost did not fall with block size: b=1 %f, b=8 %f",
			res.Rows[0].EncPerCharUs, res.Rows[7].EncPerCharUs)
	}
	if !strings.Contains(res.String(), "block size") {
		t.Error("Fig6 String() malformed")
	}
}

func TestFig7Runs(t *testing.T) {
	res, err := Fig7(Config{Trials: 30, Seed: 2}, core.ConfidentialityOnly)
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("Fig7 rows = %d", len(res.Rows))
	}
	// Paper shape: blowup decreases monotonically (roughly) with block
	// size; b=8 reduction is substantial (paper: 82%).
	if res.Rows[7].Blowup >= res.Rows[0].Blowup {
		t.Error("blowup did not fall with block size")
	}
	if res.Rows[7].Reduction < 0.6 {
		t.Errorf("b=8 reduction = %f, want >= 0.6", res.Rows[7].Reduction)
	}
	if res.Rows[0].Reduction != 0 {
		t.Errorf("b=1 reduction = %f, want 0", res.Rows[0].Reduction)
	}
	if !strings.Contains(res.String(), "blowup") {
		t.Error("Fig7 String() malformed")
	}
}

func TestFig8Runs(t *testing.T) {
	tab, err := Fig8(quickCfg())
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if tab.BlockChars != 8 || len(tab.Schemes) != 1 {
		t.Errorf("Fig8 shape: b=%d schemes=%d", tab.BlockChars, len(tab.Schemes))
	}
	if len(tab.Rows) != 4 {
		t.Errorf("Fig8 rows = %d", len(tab.Rows))
	}
}

func TestFunctionalityMatchesPaper(t *testing.T) {
	res, err := Functionality(Config{Seed: 5})
	if err != nil {
		t.Fatalf("Functionality: %v", err)
	}
	get := func(feature string) FuncRow {
		for _, row := range res.Rows {
			if row.Feature == feature {
				return row
			}
		}
		t.Fatalf("feature %q missing", feature)
		return FuncRow{}
	}
	// §VII-A: these keep working.
	for _, f := range []string{"create document", "save (full contents)", "save (incremental delta)", "load document", "passive reader refresh"} {
		if row := get(f); row.Plain != "works" || row.Encrypted != "works" {
			t.Errorf("%s: plain=%s encrypted=%s, want works/works", f, row.Plain, row.Encrypted)
		}
	}
	// §VII-A: these become unavailable.
	for _, f := range []string{"translate", "spell check", "draw pictures", "export document"} {
		row := get(f)
		if row.Plain != "works" {
			t.Errorf("%s: plain=%s, want works", f, row.Plain)
		}
		if row.Encrypted != "blocked" {
			t.Errorf("%s: encrypted=%s, want blocked", f, row.Encrypted)
		}
	}
	// §VII-A: simultaneous editing leads to conflicts; the extension's
	// save queue merges them instead.
	if row := get("simultaneous editing"); row.Plain != "conflicts" || row.Encrypted != "merges" {
		t.Errorf("simultaneous editing: plain=%s encrypted=%s, want conflicts/merges", row.Plain, row.Encrypted)
	}
	if !strings.Contains(res.String(), "spell check") {
		t.Error("Functionality String() malformed")
	}
}

func TestAblationShape(t *testing.T) {
	res, err := Ablation(Config{Trials: 5, Seed: 6})
	if err != nil {
		t.Fatalf("Ablation: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("Ablation rows = %d", len(res.Rows))
	}
	big := res.Rows[len(res.Rows)-1] // 50000 chars
	// Incremental must ship far fewer bytes than CoClo on large docs.
	if big.IncBytes*10 > big.FullBytes {
		t.Errorf("incremental ships %f chars vs CoClo %f: no win", big.IncBytes, big.FullBytes)
	}
	// And beat the naive realign on shipped bytes as well.
	if big.IncBytes > big.NaiveBytes {
		t.Errorf("incremental ships %f chars vs naive %f", big.IncBytes, big.NaiveBytes)
	}
	if !strings.Contains(res.String(), "CoClo") {
		t.Error("Ablation String() malformed")
	}
}

func TestScalingIsSubLinear(t *testing.T) {
	res, err := Scaling(Config{Trials: 10, Seed: 9}, core.ConfidentialityOnly)
	if err != nil {
		t.Fatalf("Scaling: %v", err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	sizeRatio := float64(last.DocLen) / float64(first.DocLen) // 128x
	costRatio := last.PerEditUs / first.PerEditUs
	// O(log n) leaves a 128x size ratio with a small cost ratio; allow a
	// very generous factor for noise and cache effects, but it must be
	// nowhere near linear.
	if costRatio > sizeRatio/4 {
		t.Errorf("per-edit cost ratio %.1f for size ratio %.0f: not sub-linear", costRatio, sizeRatio)
	}
	// The ciphertext delta must not grow with document size at all.
	if last.CDeltaChars > first.CDeltaChars*3 {
		t.Errorf("cdelta grew with doc size: %f -> %f", first.CDeltaChars, last.CDeltaChars)
	}
	if !strings.Contains(res.String(), "per-edit us") {
		t.Error("Scaling String() malformed")
	}
}
