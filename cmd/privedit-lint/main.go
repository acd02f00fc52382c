// privedit-lint runs the project's static-analysis suite (internal/lint)
// over the whole module: it loads every package with go/parser + go/types
// and applies the crypto and plaintext-boundary rules the paper's
// security argument depends on, plus the project conventions go vet does
// not know (context threading, metric and span names, deprecated APIs);
// concurrency checks such as copied locks are go vet's. Exit status: 0
// when the tree is clean, 1 when any unsuppressed diagnostic is found,
// 2 on a load/usage error.
//
// Usage:
//
//	privedit-lint [-json] [-rules] [pattern ...]
//
// Patterns are module-relative package paths; "./..." (the default)
// means the whole module. A diagnostic can be acknowledged in source
// with `//lint:ignore RULE reason` on the offending line or the line
// above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"privedit/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	listRules := flag.Bool("rules", false, "list the rules and exit")
	taintStats := flag.Bool("taint", false, "emit taint-analysis statistics as JSON and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: privedit-lint [-json] [-rules] [-taint] [pattern ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *listRules {
		for _, a := range lint.Analyzers {
			fmt.Printf("%-22s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-22s %s\n", lint.DirectiveRule, "malformed //lint:ignore and //taint: directives (not suppressible)")
		return
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	m, err := lint.LoadModule(root)
	if err != nil {
		fatal(err)
	}

	if *taintStats {
		emitTaintStats(m)
		return
	}

	diags := lint.Unsuppressed(m.Run(lint.Analyzers))
	diags = filterPatterns(diags, flag.Args())

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "privedit-lint: %d diagnostic(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// taintBudget is the CI wall-time ceiling for the whole-module taint
// analysis. The -taint output reports the measured time against it and
// the process exits 1 when the budget is blown, so a complexity
// regression in the fixpoint shows up as a red check, not a slow one.
const taintBudget = 30 * time.Second

// emitTaintStats runs only the taint analysis and prints its size and
// cost: analyzed functions, fixpoint passes, findings, and wall time
// against taintBudget.
func emitTaintStats(m *lint.Module) {
	start := time.Now()
	res := m.TaintResult()
	elapsed := time.Since(start)

	out := struct {
		Functions    int   `json:"functions"`
		Passes       int   `json:"passes"`
		Findings     int   `json:"findings"`
		WallMs       int64 `json:"wall_ms"`
		BudgetMs     int64 `json:"budget_ms"`
		WithinBudget bool  `json:"within_budget"`
	}{
		Functions:    res.Functions,
		Passes:       res.Passes,
		Findings:     len(res.Findings),
		WallMs:       elapsed.Milliseconds(),
		BudgetMs:     taintBudget.Milliseconds(),
		WithinBudget: elapsed <= taintBudget,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
	if !out.WithinBudget {
		fmt.Fprintf(os.Stderr, "privedit-lint: taint analysis took %v, over the %v budget\n", elapsed, taintBudget)
		os.Exit(1)
	}
}

// filterPatterns keeps diagnostics under the given module-relative path
// prefixes. No patterns, or "./...", means everything.
func filterPatterns(diags []lint.Diagnostic, patterns []string) []lint.Diagnostic {
	var prefixes []string
	for _, p := range patterns {
		if p == "./..." || p == "..." || p == "." {
			return diags
		}
		p = strings.TrimPrefix(p, "./")
		p = strings.TrimSuffix(p, "/...")
		prefixes = append(prefixes, p)
	}
	if len(prefixes) == 0 {
		return diags
	}
	var out []lint.Diagnostic
	for _, d := range diags {
		for _, p := range prefixes {
			if d.File == p || strings.HasPrefix(d.File, p+"/") {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("privedit-lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "privedit-lint: %v\n", err)
	os.Exit(2)
}
