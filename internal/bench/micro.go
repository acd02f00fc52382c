package bench

import (
	"fmt"
	"strings"
	"time"

	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/workload"
)

// Config parameterizes the experiments.
type Config struct {
	// Trials scales every experiment's repetition count. The default (0)
	// selects the paper's counts (e.g. 1000 micro-benchmark tests); set a
	// smaller value for quick runs.
	Trials int
	// Seed makes runs reproducible.
	Seed int64
}

func (c Config) trials(def int) int {
	if c.Trials > 0 {
		return c.Trials
	}
	return def
}

func editorFor(scheme core.Scheme, blockChars int, seed uint64) (*core.Editor, error) {
	return core.NewEditor("bench-password", core.Options{
		Scheme:     scheme,
		BlockChars: blockChars,
		Nonces:     crypt.NewSeededNonceSource(seed),
	})
}

// Fig4Row is one operation's cost in the RPC micro-benchmark.
type Fig4Row struct {
	Op            string  // "encryption (D)", "decryption (D')", "incremental encryption"
	PerCharMicros float64 // mean wall-clock microseconds per character processed
	ThroughputKBs float64 // plaintext kilobytes per second
}

// Fig4Result reproduces Figure 4: micro-benchmark results for RPC mode.
type Fig4Result struct {
	Scheme core.Scheme
	Trials int
	Rows   []Fig4Row
}

// Fig4 runs the §VII-B micro-benchmark: (D, D′) pairs with lengths uniform
// in [100, 10000], measuring whole-document encryption of D, decryption of
// D′, and the incremental encryption of the derived delta. The paper's
// figure reports RPC mode; pass the scheme to reproduce either mode.
func Fig4(cfg Config, scheme core.Scheme) (Fig4Result, error) {
	trials := cfg.trials(1000)
	gen := workload.NewGen(cfg.Seed + 4)
	ed, err := editorFor(scheme, 1, uint64(cfg.Seed)+40)
	if err != nil {
		return Fig4Result{}, err
	}

	// Decryption runs on a second editor under the same password. Each
	// trial's D′ container comes from a fresh Enc (a new r0), so its Reload
	// opens and verifies the whole container: the paper's Dec.
	dec, err := core.OpenWith("bench-password", ed.Transport(), core.Options{})
	if err != nil {
		return Fig4Result{}, err
	}
	var encTime, decTime, incTime time.Duration
	var encChars, decChars, incChars int
	for i := 0; i < trials; i++ {
		d, dPrime, dl := gen.EditedPair(100, 10000, 6)

		start := time.Now()
		if _, err := ed.Encrypt(d); err != nil {
			return Fig4Result{}, err
		}
		encTime += time.Since(start)
		encChars += len(d)

		start = time.Now()
		if _, err := ed.TransformDeltaOps(dl); err != nil {
			return Fig4Result{}, err
		}
		incTime += time.Since(start)
		incChars += dl.InsertLen() + dl.DeleteLen()

		transport := ed.Transport()
		start = time.Now()
		if _, err := dec.Reload(transport); err != nil {
			return Fig4Result{}, err
		}
		decTime += time.Since(start)
		decChars += len(dPrime)
	}

	row := func(op string, t time.Duration, chars int) Fig4Row {
		if chars == 0 {
			return Fig4Row{Op: op}
		}
		perChar := float64(t.Microseconds()) / float64(chars)
		kbs := float64(chars) / 1024 / t.Seconds()
		return Fig4Row{Op: op, PerCharMicros: perChar, ThroughputKBs: kbs}
	}
	return Fig4Result{
		Scheme: scheme,
		Trials: trials,
		Rows: []Fig4Row{
			row("encryption (D)", encTime, encChars),
			row("decryption (D')", decTime, decChars),
			row("incremental encryption", incTime, incChars),
		},
	}, nil
}

// String renders the result in the shape of the paper's Figure 4.
func (r Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: micro-benchmark, %s mode (averages from %d tests)\n", r.Scheme, r.Trials)
	fmt.Fprintf(&b, "%-26s %16s %16s\n", "operation", "per char (us)", "throughput kB/s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %16.4f %16.1f\n", row.Op, row.PerCharMicros, row.ThroughputKBs)
	}
	return b.String()
}

// Fig6Row is one block size's cost in the multi-character micro-benchmark.
type Fig6Row struct {
	BlockChars   int
	EncPerCharUs float64 // (a) whole-document encryption, per char
	IncPerEditUs float64 // (b) incremental updates, per edit operation
	IncPerCharUs float64 // (b) incremental updates, per edited char
}

// Fig6Result reproduces Figure 6: the impact of block size on (a)
// encrypting whole documents and (b) incremental updates. rECB mode,
// document length fixed at 10000 characters, as in §VII-D.
type Fig6Result struct {
	Trials int
	Rows   []Fig6Row
}

// Fig6 runs the block-size sweep.
func Fig6(cfg Config) (Fig6Result, error) {
	trials := cfg.trials(100)
	res := Fig6Result{Trials: trials}
	for b := 1; b <= 8; b++ {
		gen := workload.NewGen(cfg.Seed + 60 + int64(b))
		ed, err := editorFor(core.ConfidentialityOnly, b, uint64(cfg.Seed)+600+uint64(b))
		if err != nil {
			return Fig6Result{}, err
		}
		var encTime, incTime time.Duration
		var encChars, incChars, incOps int
		doc := gen.Document(10000)
		for i := 0; i < trials; i++ {
			start := time.Now()
			if _, err := ed.Encrypt(doc); err != nil {
				return Fig6Result{}, err
			}
			encTime += time.Since(start)
			encChars += len(doc)

			// A burst of random edits applied incrementally.
			script := gen.Script(ed.Plaintext(), workload.InsertsAndDeletes, 10)
			for _, sp := range script {
				start = time.Now()
				if _, err := ed.Splice(sp.Pos, sp.Del, sp.Ins); err != nil {
					return Fig6Result{}, err
				}
				incTime += time.Since(start)
				incChars += sp.Del + len(sp.Ins)
				incOps++
			}
		}
		row := Fig6Row{BlockChars: b}
		row.EncPerCharUs = float64(encTime.Microseconds()) / float64(encChars)
		row.IncPerEditUs = float64(incTime.Microseconds()) / float64(incOps)
		if incChars > 0 {
			row.IncPerCharUs = float64(incTime.Microseconds()) / float64(incChars)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the result in the shape of the paper's Figure 6.
func (r Fig6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: multi-character incremental encryption, rECB, |D| = 10000 (%d trials)\n", r.Trials)
	fmt.Fprintf(&b, "%-10s %20s %20s %20s\n", "block size", "(a) enc us/char", "(b) inc us/edit", "(b) inc us/char")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10d %20.4f %20.2f %20.3f\n", row.BlockChars, row.EncPerCharUs, row.IncPerEditUs, row.IncPerCharUs)
	}
	return b.String()
}
