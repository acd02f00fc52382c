package lint

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The module is loaded once and shared: type-checking the tree plus the
// standard library closure costs a few seconds.
var (
	moduleOnce sync.Once
	module     *Module
	moduleErr  error
)

func loadTestModule(t *testing.T) *Module {
	t.Helper()
	moduleOnce.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			moduleErr = err
			return
		}
		module, moduleErr = LoadModule(root)
	})
	if moduleErr != nil {
		t.Fatalf("LoadModule: %v", moduleErr)
	}
	return module
}

// TestModuleClean is the suite's own acceptance gate: the full analyzer
// suite over the real module must produce zero unsuppressed diagnostics.
func TestModuleClean(t *testing.T) {
	m := loadTestModule(t)
	if len(m.Units) < 20 {
		t.Fatalf("loaded only %d analysis units; the loader is missing packages", len(m.Units))
	}
	for _, d := range Unsuppressed(m.Run(Analyzers)) {
		t.Errorf("module not lint-clean: %s", d)
	}
}

// TestRandomnessConfinedToCrypt asserts the §VI-A discipline end to end:
// internal/crypt is the only unannotated randomness source in the
// module, and the only annotated exemptions are the seeded evaluation
// workload generator and the seeded store soak and storm workloads.
func TestRandomnessConfinedToCrypt(t *testing.T) {
	m := loadTestModule(t)
	diags := m.Run([]*Analyzer{NonceSource})

	var suppressed []string
	for _, d := range diags {
		if d.Suppressed {
			suppressed = append(suppressed, d.File)
			continue
		}
		t.Errorf("unannotated randomness source outside internal/crypt: %s", d)
	}
	if want := []string{"internal/bench/store.go", "internal/workload/workload.go"}; !equalStrings(suppressed, want) {
		t.Errorf("annotated randomness exemptions = %v, want %v", suppressed, want)
	}

	// Sanity: the exemption the rule funnels everyone toward must be
	// real — internal/crypt actually imports crypto/rand.
	found := false
	for _, u := range m.Units {
		if modulePkg(u, m) != cryptPkg || u.XTest {
			continue
		}
		for _, f := range u.Files {
			for _, spec := range f.Imports {
				if spec.Path.Value == `"crypto/rand"` {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("internal/crypt no longer imports crypto/rand; the nonce-source exemption points at nothing")
	}
}

// TestModuleCleanTaint is the taint rule's own acceptance gate, pinned
// separately from TestModuleClean so a regression names the rule: the
// whole-module interprocedural analysis must prove zero unsuppressed
// plaintext flows — with no //lint:ignore anywhere in the tree — while
// the seeded leaks in testdata/taintflow stay detected.
func TestModuleCleanTaint(t *testing.T) {
	m := loadTestModule(t)
	diags := m.Run([]*Analyzer{PlaintextFlow})
	for _, d := range diags {
		if d.Suppressed {
			t.Errorf("plaintext-flow finding hidden behind //lint:ignore (the tree must stay ignore-free for this rule): %s", d)
			continue
		}
		t.Errorf("plaintext reaches an untrusted sink: %s", d)
	}
	res := m.TaintResult()
	if res.Functions < 300 {
		t.Errorf("taint analysis covered only %d functions; the module walk is missing bodies", res.Functions)
	}
	if res.Passes < 2 {
		t.Errorf("taint fixpoint converged in %d pass(es); summaries are not propagating", res.Passes)
	}
}

// TestPlaintextPkgsDerived pins the no-plaintext-log package set as
// machine-derived: packages that only receive ciphertext or metadata
// must stay out, and packages the analysis proves to receive plaintext
// must be in — even when nobody added them to the hand-written seeds.
func TestPlaintextPkgsDerived(t *testing.T) {
	m := loadTestModule(t)
	pkgs := m.PlaintextPkgs()
	// Derived members: none of these are in plaintextSeedPkgs; they are in
	// the set only because the taint analysis proves plaintext reaches
	// them. This is the drift hazard the derivation closes.
	for _, p := range []string{"internal/bespin", "internal/buzzword", "internal/blockdoc"} {
		if seed := plaintextSeedPkgs[p]; seed {
			t.Errorf("%s is hand-seeded; this test needs it derived", p)
		}
		if !pkgs[p] {
			t.Errorf("PlaintextPkgs() is missing %s, which demonstrably handles decrypted bytes", p)
		}
	}
	// The seeds themselves must survive the union.
	for p := range plaintextSeedPkgs {
		if !pkgs[p] {
			t.Errorf("PlaintextPkgs() dropped seed package %s", p)
		}
	}
	// Observability and tooling packages carry only ciphertext sizes,
	// names, and timings; pulling them in would ban all their logging.
	for _, p := range []string{"internal/obs", "internal/trace", "internal/netsim", "internal/lint"} {
		if pkgs[p] {
			t.Errorf("PlaintextPkgs() wrongly includes %s: no plaintext reaches it", p)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFixtures runs the suite over every testdata fixture package and
// compares diagnostics against the // want (and // want-above)
// expectations embedded in the fixtures.
func TestFixtures(t *testing.T) {
	fixtures := []struct {
		dir    string
		asPath string
	}{
		{"noncesource", "privedit/internal/fixture"},
		{"cryptok", "privedit/internal/crypt"},
		{"plaintextlog", "privedit/internal/core"},
		{"ctxfirst", "privedit/internal/fixture"},
		{"ctxcontract", "privedit/internal/gdocs"},
		{"gofatal", "privedit/internal/fixture"},
		{"mutexcopy", "privedit/internal/fixture"},
		{"metricname", "privedit/internal/fixture"},
		{"spanname", "privedit/internal/fixture"},
		{"deprecated", "privedit/internal/fixture"},
		{"directive", "privedit/internal/fixture"},
		{"taintflow", "privedit/internal/fixture"},
		{"taintdirective", "privedit/internal/fixture"},
	}
	m := loadTestModule(t)
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.dir, func(t *testing.T) {
			u, err := m.CheckDir(filepath.Join("testdata", fx.dir), fx.asPath)
			if err != nil {
				t.Fatalf("CheckDir: %v", err)
			}
			wants, err := collectWants(m, u)
			if err != nil {
				t.Fatalf("parsing want comments: %v", err)
			}
			for _, d := range Unsuppressed(m.RunUnit(u, Analyzers)) {
				if !wants.match(d) {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for _, w := range wants.unmatched() {
				t.Errorf("expected diagnostic did not fire: %s:%d: %s", w.file, w.line, w.re)
			}
		})
	}
}

// want is one expectation from a fixture comment.
type want struct {
	file    string // base name
	line    int
	re      *regexp.Regexp
	matched bool
}

type wantSet struct{ wants []*want }

func (ws *wantSet) match(d Diagnostic) bool {
	for _, w := range ws.wants {
		if w.matched || w.file != filepath.Base(d.File) || w.line != d.Line {
			continue
		}
		if w.re.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) unmatched() []*want {
	var out []*want
	for _, w := range ws.wants {
		if !w.matched {
			out = append(out, w)
		}
	}
	return out
}

// collectWants extracts // want "re" and // want-above "re" comments
// from a unit's files. A want applies to its own line; a want-above to
// the line directly above (for diagnostics that land on comments, like
// malformed directives).
func collectWants(m *Module, u *Unit) (*wantSet, error) {
	ws := &wantSet{}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				line := m.Fset.Position(c.Pos()).Line
				switch {
				case strings.HasPrefix(text, "want-above "):
					text = strings.TrimPrefix(text, "want-above ")
					line--
				case strings.HasPrefix(text, "want "):
					text = strings.TrimPrefix(text, "want ")
				default:
					continue
				}
				file := filepath.Base(m.Fset.Position(c.Pos()).Filename)
				for text = strings.TrimSpace(text); text != ""; text = strings.TrimSpace(text) {
					q, err := strconv.QuotedPrefix(text)
					if err != nil {
						return nil, err
					}
					unq, err := strconv.Unquote(q)
					if err != nil {
						return nil, err
					}
					re, err := regexp.Compile(unq)
					if err != nil {
						return nil, err
					}
					ws.wants = append(ws.wants, &want{file: file, line: line, re: re})
					text = text[len(q):]
				}
			}
		}
	}
	return ws, nil
}

// TestDiagnosticString pins the file:line:col output contract the CI log
// and editors rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "nonce-source", File: "internal/x/x.go", Line: 7, Col: 2, Message: "boom"}
	if got, wantStr := d.String(), "internal/x/x.go:7:2: boom [nonce-source]"; got != wantStr {
		t.Errorf("String() = %q, want %q", got, wantStr)
	}
}
