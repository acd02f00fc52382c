// Package lint is privedit's project-specific static-analysis suite. It
// machine-checks the invariants the paper's security argument (§V-A/§V-B)
// relies on but neither the compiler nor go vet can see: where randomness
// may come from, where plaintext may flow, how server-facing APIs thread
// context, and how the telemetry namespace is spelled. Concurrency
// mistakes vet already catches (copied locks, t.Fatal from a goroutine)
// are left to `make vet`. The driver in cmd/privedit-lint loads the whole
// module with go/parser + go/types and runs every analyzer, failing the
// build on any unsuppressed diagnostic.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"privedit/internal/lint/taint"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Rule       string         `json:"rule"`
	Pos        token.Position `json:"-"`
	File       string         `json:"file"` // module-relative path
	Line       int            `json:"line"`
	Col        int            `json:"col"`
	Message    string         `json:"message"`
	Suppressed bool           `json:"-"` // matched by a //lint:ignore directive
	Reason     string         `json:"-"` // the directive's reason, when suppressed
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Rule)
}

// reporter is the callback analyzers use to emit diagnostics.
type reporter func(pos token.Pos, format string, args ...any)

// Analyzer is one named rule.
type Analyzer struct {
	Name string // rule ID, used in diagnostics and //lint:ignore
	Doc  string // one-line description for -rules
	Run  func(u *Unit, m *Module, report reporter)
}

// Analyzers is the full suite, in the order diagnostics are grouped.
var Analyzers = []*Analyzer{
	NonceSource,
	PlaintextFlow,
	CtxFirst,
	MetricName,
	SpanName,
	DeprecatedAPI,
}

// DirectiveRule is the pseudo-rule under which malformed //lint:ignore
// comments, and those naming a rule outside Analyzers, are reported. It
// cannot itself be suppressed.
const DirectiveRule = "directive"

// Run executes the given analyzers over every analysis unit of the
// module and returns all diagnostics — including suppressed ones, which
// callers normally filter with Unsuppressed — sorted by position.
func (m *Module) Run(analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, u := range m.Units {
		diags = append(diags, m.RunUnit(u, analyzers)...)
	}
	sortDiagnostics(diags)
	return diags
}

// RunUnit executes the analyzers over a single unit, applying suppression
// directives found in that unit's files.
func (m *Module) RunUnit(u *Unit, analyzers []*Analyzer) []Diagnostic {
	directives, diags := m.collectDirectives(u)
	for _, a := range analyzers {
		report := func(pos token.Pos, format string, args ...any) {
			p := m.Fset.Position(pos)
			diags = append(diags, Diagnostic{
				Rule:    a.Name,
				Pos:     p,
				File:    m.relFile(p.Filename),
				Line:    p.Line,
				Col:     p.Column,
				Message: fmt.Sprintf(format, args...),
			})
		}
		a.Run(u, m, report)
	}
	// Apply suppression: a directive covers its own line and the line
	// directly below it, in the same file.
	for i := range diags {
		d := &diags[i]
		if d.Rule == DirectiveRule {
			continue
		}
		for _, dir := range directives {
			if dir.File != d.Pos.Filename {
				continue
			}
			if d.Line != dir.Line && d.Line != dir.Line+1 {
				continue
			}
			for _, r := range dir.Rules {
				if r == d.Rule {
					d.Suppressed = true
					d.Reason = dir.Reason
				}
			}
		}
	}
	sortDiagnostics(diags)
	return diags
}

// Unsuppressed filters out diagnostics acknowledged by a directive.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// collectDirectives parses every //lint: comment in the unit, returning
// the well-formed directives plus diagnostics for malformed ones and for
// rule names outside the full suite. The check is against Analyzers even
// when RunUnit runs a subset: a directive naming a retired or misspelled
// rule would otherwise suppress nothing, silently.
func (m *Module) collectDirectives(u *Unit) ([]*ignoreDirective, []Diagnostic) {
	var dirs []*ignoreDirective
	var diags []Diagnostic
	bad := func(p token.Position, msg string) {
		diags = append(diags, Diagnostic{
			Rule:    DirectiveRule,
			Pos:     p,
			File:    m.relFile(p.Filename),
			Line:    p.Line,
			Col:     p.Column,
			Message: msg,
		})
	}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//") {
					continue // block comments cannot carry directives
				}
				text := strings.TrimPrefix(c.Text, "//")
				p := m.Fset.Position(c.Pos())
				// Malformed //taint: directives are directive errors too: a
				// typo'd annotation must never silently change the taint
				// verdict.
				if _, _, terr := taint.ParseTaintDirective(text); terr != nil && terr != taint.ErrNotDirective {
					bad(p, terr.Error())
					continue
				}
				rules, reason, err := ParseIgnoreDirective(text)
				if err != nil {
					if err != ErrNotDirective {
						bad(p, err.Error())
					}
					continue
				}
				for _, r := range rules {
					if !knownRule(r) {
						bad(p, "//lint:ignore names unknown rule "+quoteTrunc(r)+" (see privedit-lint -rules)")
					}
				}
				dirs = append(dirs, &ignoreDirective{
					Rules:  rules,
					Reason: reason,
					File:   p.Filename,
					Line:   p.Line,
				})
			}
		}
	}
	return dirs, diags
}

// knownRule reports whether name is a rule of the full suite.
func knownRule(name string) bool {
	for _, a := range Analyzers {
		if a.Name == name {
			return true
		}
	}
	return false
}

// relFile makes a file path module-relative for stable output.
func (m *Module) relFile(filename string) string {
	if rel, ok := strings.CutPrefix(filename, m.Root+"/"); ok {
		return rel
	}
	return filename
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
}

// --- shared analyzer helpers ---

// inspectFiles walks every file of the unit, skipping test files when
// nonTestOnly is set.
func inspectFiles(u *Unit, nonTestOnly bool, fn func(f *ast.File, n ast.Node) bool) {
	for _, f := range u.Files {
		if nonTestOnly && u.IsTest[f] {
			continue
		}
		file := f
		ast.Inspect(f, func(n ast.Node) bool { return fn(file, n) })
	}
}

// modulePkg reports the unit's package path with the module prefix
// normalized away; e.g. "privedit/internal/crypt" -> "internal/crypt".
// Fixture units loaded under a synthetic "privedit/..." path normalize
// the same way, which is what lets testdata exercise path-scoped rules.
func modulePkg(u *Unit, m *Module) string {
	if rest, ok := strings.CutPrefix(u.Path, m.Path+"/"); ok {
		return rest
	}
	if u.Path == m.Path {
		return ""
	}
	return u.Path
}
