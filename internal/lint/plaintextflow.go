// The plaintext-flow rule: the interprocedural taint analysis in
// internal/lint/taint, adapted to the lint driver. One whole-module
// analysis run is shared by every unit; findings are attributed to the
// unit that owns the sink's file so suppression and sorting behave like
// any other rule.
package lint

import (
	"privedit/internal/lint/taint"
)

// PlaintextFlow is the taint-flow rule: decrypted plaintext must never
// reach an untrusted-server or auxiliary-channel sink, which includes
// stdout, stderr and the process log in internal/ packages. Each finding
// carries the complete source→sink path, every hop with file:line.
var PlaintextFlow = &Analyzer{
	Name: "plaintext-flow",
	Doc:  "decrypted plaintext must not flow to network, trace, metric, log/stdout, or escaping-error sinks",
	Run:  runPlaintextFlow,
}

// TaintResult returns the whole-module taint analysis, computing it on
// first use. Units loaded via CheckDir are not part of it; they get a
// standalone analysis in runPlaintextFlow.
func (m *Module) TaintResult() *taint.Result {
	m.taintOnce.Do(func() {
		m.taintRes = taint.Analyze(m.Fset, m.basePkgs)
	})
	return m.taintRes
}

func taintPackage(u *Unit) *taint.Package {
	return &taint.Package{
		Path:   u.Path,
		Files:  u.Files,
		Pkg:    u.Pkg,
		Info:   u.Info,
		IsTest: u.IsTest,
	}
}

func runPlaintextFlow(u *Unit, m *Module, report reporter) {
	if u.XTest {
		return // external test packages do not ship
	}
	res := m.TaintResult()
	if !m.isModuleUnit(u) {
		// Fixture unit (CheckDir): analyze it standalone. Sources and
		// sinks are spec- and annotation-driven, so a fixture importing
		// real module packages still exercises the real boundary.
		res = taint.Analyze(m.Fset, []*taint.Package{taintPackage(u)})
	}
	own := make(map[string]bool)
	for _, f := range u.Files {
		if !u.IsTest[f] {
			own[m.Fset.Position(f.Pos()).Filename] = true
		}
	}
	for _, fnd := range res.Findings {
		if !own[m.Fset.Position(fnd.Pos).Filename] {
			continue
		}
		report(fnd.Pos, "plaintext reaches %s: %s", fnd.Sink, taint.RenderSteps(m.Fset, fnd.Steps, m.Root))
	}
}

func (m *Module) isModuleUnit(u *Unit) bool {
	for _, mu := range m.Units {
		if mu == u {
			return true
		}
	}
	return false
}
