// Command privedit-bench regenerates every table and figure from §VII of
// "Private Editing Using Untrusted Cloud Services" (Huang & Evans, 2011)
// against this repository's implementation.
//
// Usage:
//
//	privedit-bench -exp all            # everything, paper-scale trials
//	privedit-bench -exp fig4           # one experiment
//	privedit-bench -exp fig5 -trials 5 # quick run
//	privedit-bench -exp all -json out/ # also write out/BENCH_<exp>.json
//
// Experiments: fig4, fig5, fig6, fig7, fig8, func, ablation, scaling, all.
//
// -json writes one machine-readable BENCH_<exp>.json per experiment into
// the given directory, so the performance trajectory can be tracked across
// commits instead of only eyeballed in pretty-printed tables.
// -metrics-dump writes the run's full telemetry catalog (Prometheus text)
// on exit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"privedit/internal/bench"
	"privedit/internal/core"
	"privedit/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig4|fig5|fig6|fig7|fig8|func|ablation|scaling|all")
	trials := flag.Int("trials", 0, "override trial count (0 = paper-scale defaults)")
	seed := flag.Int64("seed", 2011, "random seed")
	jsonDir := flag.String("json", "", "directory to write BENCH_<exp>.json result files into")
	metricsDump := flag.String("metrics-dump", "", "on exit, write Prometheus text metrics to this path (\"-\" for stdout)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	flag.Parse()

	if *metricsDump != "" {
		obs.Enable()
	}
	stopProfiles, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "privedit-bench:", err)
		os.Exit(1)
	}
	cfg := bench.Config{Trials: *trials, Seed: *seed}
	err = run(*exp, cfg, *jsonDir)
	if *metricsDump != "" {
		if derr := dumpMetrics(*metricsDump); derr != nil && err == nil {
			err = derr
		}
	}
	if perr := stopProfiles(); perr != nil && err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "privedit-bench:", err)
		os.Exit(1)
	}
}

// runner executes one experiment: it pretty-prints the paper-style tables
// to stdout and returns the underlying result values for -json.
type runner func(bench.Config) (any, error)

func run(exp string, cfg bench.Config, jsonDir string) error {
	runners := map[string]runner{
		"fig4":     runFig4,
		"fig5":     runFig5,
		"fig6":     runFig6,
		"fig7":     runFig7,
		"fig8":     runFig8,
		"func":     runFunc,
		"ablation": runAblation,
		"scaling":  runScaling,
	}
	order := []string{"fig4", "fig5", "fig6", "fig7", "fig8", "func", "ablation", "scaling"}
	if exp != "all" {
		if _, ok := runners[exp]; !ok {
			return fmt.Errorf("unknown experiment %q", exp)
		}
		order = []string{exp}
	}
	for i, name := range order {
		result, err := runners[name](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if jsonDir != "" {
			if err := writeJSON(jsonDir, name, cfg, result); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		if i < len(order)-1 {
			fmt.Println()
		}
	}
	return nil
}

// benchRecord is the envelope around one experiment's JSON result.
type benchRecord struct {
	Experiment  string `json:"experiment"`
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	Trials      int    `json:"trials"` // 0 = paper-scale defaults
	Seed        int64  `json:"seed"`
	Result      any    `json:"result"`
}

func writeJSON(dir, exp string, cfg bench.Config, result any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := benchRecord{
		Experiment:  exp,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Trials:      cfg.Trials,
		Seed:        cfg.Seed,
		Result:      result,
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_"+exp+".json")
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func dumpMetrics(path string) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return obs.Default.WritePrometheus(out)
}

func runFig4(cfg bench.Config) (any, error) {
	var results []bench.Fig4Result
	for _, scheme := range []core.Scheme{core.ConfidentialityIntegrity, core.ConfidentialityOnly} {
		res, err := bench.Fig4(cfg, scheme)
		if err != nil {
			return nil, err
		}
		fmt.Print(res)
		results = append(results, res)
	}
	return results, nil
}

func runFig5(cfg bench.Config) (any, error) {
	tables, err := bench.Fig5(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Println("Figure 5: macro-benchmark results (performance degradation)")
	for _, t := range tables {
		fmt.Print(t)
	}
	return tables, nil
}

func runFig6(cfg bench.Config) (any, error) {
	res, err := bench.Fig6(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(res)
	return res, nil
}

func runFig7(cfg bench.Config) (any, error) {
	res, err := bench.Fig7(cfg, core.ConfidentialityOnly)
	if err != nil {
		return nil, err
	}
	fmt.Print(res)
	return res, nil
}

func runFig8(cfg bench.Config) (any, error) {
	t, err := bench.Fig8(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Println("Figure 8: macro-benchmark, multi-character incremental encryption")
	fmt.Print(t)
	return t, nil
}

func runFunc(cfg bench.Config) (any, error) {
	res, err := bench.Functionality(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(res)
	return res, nil
}

func runScaling(cfg bench.Config) (any, error) {
	res, err := bench.Scaling(cfg, core.ConfidentialityOnly)
	if err != nil {
		return nil, err
	}
	fmt.Print(res)
	return res, nil
}

func runAblation(cfg bench.Config) (any, error) {
	res, err := bench.Ablation(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(res)
	return res, nil
}
