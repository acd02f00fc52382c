// The interprocedural half of the engine: a registry of every function
// body in the analyzed packages, per-function summaries, and the global
// fixpoint that iterates summary computation until nothing changes.
//
// A summary answers, for one function: which inputs (receiver + params,
// at struct-field granularity) flow to which outputs (results, writes
// through pointer-like inputs), which inputs reach a sink inside the
// function or its callees, and which flows happen unconditionally because
// a source lives inside. Summaries are monotone — entries are only ever
// added — so the fixpoint terminates.
package taint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Caps keep pathological inputs from blowing up the fixpoint. They are
// far above anything the real module produces.
const (
	maxOriginsPerFact  = 8
	maxStepsPerPath    = 24
	maxCondSinksPerFn  = 64
	maxFindings        = 400
	maxGlobalPasses    = 24
	maxIntraIterations = 16
)

// flowCond is the condition under which a summary flow fires: taint on
// input (receiver first, then params), restricted to one field when field
// is non-empty. input == -1 means unconditional (source inside).
type flowCond struct {
	input int
	field string
}

// unconditional is the flowCond of source-rooted flows.
var unconditional = flowCond{input: -1}

// sumKey addresses one output slot of a summary: result index r for
// 0 <= r < numResults, or numResults+i for writes through input i.
// outField restricts the flow to one field of the output ("" = whole).
type sumKey struct {
	out      int
	outField string
}

// flowTmpl is the recorded provenance of one summary flow: the hops taken
// inside the function (and its callees) from the condition to the output.
type flowTmpl struct {
	steps []Step
}

// condSink is a sink reached inside a function (or transitively in its
// callees) whenever the condition input is tainted at a call site.
type condSink struct {
	cond  flowCond
	desc  string
	pos   token.Pos
	steps []Step
}

// summary is one function's interprocedural behavior.
type summary struct {
	numResults int
	flows      map[sumKey]map[flowCond]*flowTmpl
	sinks      []*condSink
}

func newSummary(numResults int) *summary {
	return &summary{
		numResults: numResults,
		flows:      make(map[sumKey]map[flowCond]*flowTmpl),
	}
}

// addFlow records cond -> out; returns true if the summary changed.
// The first template for a given (out, cond) pair wins, keeping paths
// stable across fixpoint passes.
func (s *summary) addFlow(out sumKey, cond flowCond, tmpl *flowTmpl) bool {
	m := s.flows[out]
	if m == nil {
		m = make(map[flowCond]*flowTmpl)
		s.flows[out] = m
	}
	if _, ok := m[cond]; ok {
		return false
	}
	m[cond] = tmpl
	return true
}

// addSink records a conditional sink; returns true if new. Sinks are
// deduplicated by (cond, pos) so recursion cannot grow them unboundedly.
func (s *summary) addSink(cs *condSink) bool {
	if len(s.sinks) >= maxCondSinksPerFn {
		return false
	}
	for _, old := range s.sinks {
		if old.cond == cs.cond && old.pos == cs.pos {
			return false
		}
	}
	s.sinks = append(s.sinks, cs)
	return true
}

// funcInfo is one analyzable function body.
type funcInfo struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	// inputs: receiver (if any) followed by parameters, in order.
	inputs  []*types.Var
	results []*types.Var
	sum     *summary
	// sanitizer/source verb from annotations ("" if none).
	verb string
}

type analyzer struct {
	fset *token.FileSet
	pkgs []*Package

	funcs   map[*types.Func]*funcInfo
	ordered []*funcInfo // deterministic analysis order (by position)
	annots  *annotations

	// ifaceImpls caches interface-method -> concrete implementations.
	ifaceImpls map[*types.Func][]*funcInfo
	namedTypes []types.Type // all named (non-interface) types in the packages
	// analyzedPkgs are the *types.Package objects under analysis; dispatch
	// is only resolved for interfaces defined in one of them.
	analyzedPkgs map[*types.Package]bool

	findings []Finding
	seen     map[findingKey]bool

	changed bool // set when any summary grows during a pass
	passes  int
}

type findingKey struct {
	sinkPos   token.Pos
	sourcePos token.Pos
}

func newAnalyzer(fset *token.FileSet, pkgs []*Package) *analyzer {
	a := &analyzer{
		fset:         fset,
		pkgs:         pkgs,
		funcs:        make(map[*types.Func]*funcInfo),
		ifaceImpls:   make(map[*types.Func][]*funcInfo),
		seen:         make(map[findingKey]bool),
		analyzedPkgs: make(map[*types.Package]bool),
	}
	for _, p := range pkgs {
		if p.Pkg != nil {
			a.analyzedPkgs[p.Pkg] = true
		}
	}
	a.annots = collectAnnotations(pkgs)
	a.buildRegistry()
	return a
}

// buildRegistry indexes every function body and named type.
func (a *analyzer) buildRegistry() {
	for _, p := range a.pkgs {
		for _, f := range p.Files {
			if p.IsTest[f] {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &funcInfo{fn: obj, decl: fd, pkg: p, verb: a.annots.funcs[obj]}
				sig := obj.Type().(*types.Signature)
				if recv := sig.Recv(); recv != nil {
					fi.inputs = append(fi.inputs, recv)
				}
				for i := 0; i < sig.Params().Len(); i++ {
					fi.inputs = append(fi.inputs, sig.Params().At(i))
				}
				for i := 0; i < sig.Results().Len(); i++ {
					fi.results = append(fi.results, sig.Results().At(i))
				}
				fi.sum = newSummary(len(fi.results))
				a.funcs[obj] = fi
				a.ordered = append(a.ordered, fi)
			}
		}
		// Named types for interface resolution.
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			t := tn.Type()
			if _, isIface := t.Underlying().(*types.Interface); isIface {
				continue
			}
			a.namedTypes = append(a.namedTypes, t)
		}
	}
	sort.Slice(a.ordered, func(i, j int) bool {
		return a.ordered[i].decl.Pos() < a.ordered[j].decl.Pos()
	})
}

// run drives the global fixpoint: recompute every function's facts until
// no summary grows, then one final pass has already recorded all findings
// (findings are deduplicated, so re-recording is idempotent).
func (a *analyzer) run() {
	for pass := 0; pass < maxGlobalPasses; pass++ {
		a.passes++
		a.changed = false
		for _, fi := range a.ordered {
			a.analyzeFunc(fi)
		}
		if !a.changed {
			break
		}
	}
	sort.Slice(a.findings, func(i, j int) bool {
		fi, fj := a.findings[i], a.findings[j]
		if fi.Pos != fj.Pos {
			return fi.Pos < fj.Pos
		}
		if len(fi.Steps) > 0 && len(fj.Steps) > 0 {
			return fi.Steps[0].Pos < fj.Steps[0].Pos
		}
		return len(fi.Steps) < len(fj.Steps)
	})
}

func (a *analyzer) result() *Result {
	return &Result{
		Findings:  a.findings,
		Functions: len(a.ordered),
		Passes:    a.passes,
	}
}

// report records a finding (deduplicated by source and sink position).
func (a *analyzer) report(sinkDesc string, sinkPos token.Pos, steps []Step) {
	if len(a.findings) >= maxFindings {
		return
	}
	key := findingKey{sinkPos: sinkPos}
	if len(steps) > 0 {
		key.sourcePos = steps[0].Pos
	}
	if a.seen[key] {
		return
	}
	a.seen[key] = true
	a.findings = append(a.findings, Finding{Sink: sinkDesc, Pos: sinkPos, Steps: steps})
}

// implementations resolves an interface method to the in-scope concrete
// methods that satisfy it, caching the answer. Only interfaces defined in
// the analyzed packages dispatch: for a one-method external interface
// like io.Closer, "every module type with a Close method" is statically
// unrelated to the value at the call site and would drown the report in
// impossible paths. External-interface crossings that matter (such as
// http.RoundTripper) are named in the sink table instead.
func (a *analyzer) implementations(m *types.Func) []*funcInfo {
	if impls, ok := a.ifaceImpls[m]; ok {
		return impls
	}
	if m.Pkg() == nil || !a.analyzedPkgs[m.Pkg()] {
		a.ifaceImpls[m] = nil
		return nil
	}
	var impls []*funcInfo
	sig, _ := m.Type().(*types.Signature)
	var iface *types.Interface
	if sig != nil && sig.Recv() != nil {
		iface, _ = sig.Recv().Type().Underlying().(*types.Interface)
	}
	if iface != nil {
		for _, t := range a.namedTypes {
			var impl types.Type
			switch {
			case types.Implements(t, iface):
				impl = t
			case types.Implements(types.NewPointer(t), iface):
				impl = types.NewPointer(t)
			default:
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, m.Pkg(), m.Name())
			if fn, ok := obj.(*types.Func); ok {
				if fi := a.funcs[fn]; fi != nil {
					impls = append(impls, fi)
				}
			}
		}
		sort.Slice(impls, func(i, j int) bool { return impls[i].decl.Pos() < impls[j].decl.Pos() })
	}
	a.ifaceImpls[m] = impls
	return impls
}

// sourceSpecFor returns the source spec for a callee: the builtin table
// first, then //taint:source annotations (which taint every taint-capable
// non-error result).
func (a *analyzer) sourceSpecFor(fn *types.Func) *sourceSpec {
	if fn == nil {
		return nil
	}
	if spec, ok := builtinSources[symbolKey(fn)]; ok {
		return spec
	}
	if a.annots.funcs[originOf(fn)] == VerbSource {
		sig, _ := fn.Type().(*types.Signature)
		spec := &sourceSpec{desc: "//taint:source " + fn.Name()}
		if sig != nil {
			for i := 0; i < sig.Results().Len(); i++ {
				t := sig.Results().At(i).Type()
				if isErrorType(t) || !taintCapable(t) {
					continue
				}
				spec.results = append(spec.results, i)
			}
		}
		return spec
	}
	return nil
}

// isSanitizer reports whether calls to fn are the sanctioned
// encrypt-then-encode crossing.
func (a *analyzer) isSanitizer(fn *types.Func) bool {
	return fn != nil && a.annots.funcs[originOf(fn)] == VerbSanitizer
}

func originOf(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

func isErrorType(t types.Type) bool {
	return types.AssignableTo(t, types.Universe.Lookup("error").Type())
}
