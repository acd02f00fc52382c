// Package taint is an interprocedural taint-flow analysis that statically
// checks the invariant the paper's whole security argument (§V-A/§V-B)
// rests on: decrypted plaintext never crosses the untrusted-server
// boundary. Everything that reaches the cloud — transport request bodies,
// the gdocs/bespin/buzzword client call surfaces — and every unencrypted
// auxiliary channel — trace annotations, span names, metric labels, error
// strings escaping exported APIs, and stdout/stderr/log output from
// internal/ packages — is a sink; the outputs of the
// decryption kernels and every struct field annotated //taint:source are
// sources; the encrypt-then-encode commit path is declared sanctioned
// with //taint:sanitizer annotations. The engine computes per-function
// summaries (which inputs reach which outputs and sinks, at struct-field
// granularity) over the module call graph, iterates them to a fixpoint,
// and reports each violation as a complete source→sink path.
//
// The analysis is stdlib-only (go/ast + go/types, like the rest of the
// lint suite) and deliberately input-agnostic: callers hand it
// type-checked packages, so the same engine runs over the real module and
// over golden testdata fixtures.
//
// Known unsoundness (documented in DESIGN.md §14): reflection, taint
// through package-level variables, interface dispatch (resolved only for
// interfaces defined in the analyzed packages; calls through external
// interfaces like io.Closer fall back to default propagation plus the
// explicit sink table), taint written through io.Writer-style function
// arguments (method receivers are tracked), method values passed across
// function boundaries, numeric/bool values (lengths and offsets are
// deemed clean; single bytes and runes do carry taint), and error values
// built by anything other than the fmt/errors/strconv content-embedding
// constructors.
package taint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Package is one type-checked analysis input. The lint driver adapts its
// own units into this shape.
type Package struct {
	Path   string
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	IsTest map[*ast.File]bool // files to skip (test code does not ship)
}

// Step is one hop of a source→sink path.
type Step struct {
	Pos  token.Pos `json:"-"`
	Note string    `json:"note"`
}

// Finding is one proven source→sink flow. Steps[0] is the source and the
// last step is the sink; every step carries a position.
type Finding struct {
	Sink  string // sink description, e.g. "trace annotation"
	Pos   token.Pos
	Steps []Step
}

// Result is the outcome of one Analyze call.
type Result struct {
	Findings []Finding
	// Functions is the number of function bodies analyzed, Passes the
	// number of global fixpoint passes (diagnostics for the CI budget).
	Functions int
	Passes    int
}

// sourceSpec marks a function as a taint source independent of its body.
type sourceSpec struct {
	desc      string
	results   []int // result indices that return tainted data
	outParams []int // parameter indices written with tainted data (e.g. PRP.Decrypt dst)
}

// covers reports whether the spec taints result i (false for a nil spec).
func (s *sourceSpec) covers(i int) bool {
	return s != nil && slices.Contains(s.results, i)
}

// sinkSpec marks function parameters as crossing the trust boundary.
type sinkSpec struct {
	desc     string
	params   []int // parameter indices that are sinks
	variadic bool  // the trailing variadic parameter is a sink too
	// internalOnly confines the sink to call sites in packages under an
	// internal/ directory. Programs in cmd/ and examples/ run on the
	// trusted client and may show plaintext to their own user.
	internalOnly bool
	// stdStream makes the sink fire only when argument 0 is os.Stdout or
	// os.Stderr: fmt.Fprint* into any other writer is not process output.
	stdStream bool
}

// builtinSources are the decryption kernels of the scheme: the Dec
// surfaces of §V-A. Keys are symbol keys (see symbolKey).
var builtinSources = map[string]*sourceSpec{
	"privedit/internal/core.Decrypt":                {desc: "core.Decrypt plaintext", results: []int{0}},
	"privedit/internal/core.DecryptWith":            {desc: "core.DecryptWith plaintext", results: []int{0}},
	"privedit/internal/core.Editor.Plaintext":       {desc: "Editor.Plaintext", results: []int{0}},
	"privedit/internal/blockdoc.Document.Plaintext": {desc: "Document.Plaintext", results: []int{0}},
	"privedit/internal/crypt.PRP.Decrypt":           {desc: "PRP.Decrypt output", outParams: []int{0}},
	"privedit/internal/crypt.WidePRP.Decrypt":       {desc: "WidePRP.Decrypt output", outParams: []int{0}},
}

// builtinSinks are the boundary crossings: data handed to any of these
// leaves the encryption envelope.
var builtinSinks = map[string]*sinkSpec{
	// Untrusted-server client surfaces: whatever these carry is stored by
	// the provider verbatim.
	"privedit/internal/gdocs.Client.Insert":       {desc: "gdocs server (Insert text)", params: []int{1}},
	"privedit/internal/gdocs.Client.Replace":      {desc: "gdocs server (Replace text)", params: []int{2}},
	"privedit/internal/gdocs.Client.SetText":      {desc: "gdocs server (SetText)", params: []int{0}},
	"privedit/internal/gdocs.Client.SaveRawDelta": {desc: "gdocs server (raw delta)", params: []int{0}},
	"privedit/internal/bespin.Client.Save":        {desc: "bespin server (Save)", params: []int{0, 1}},
	"privedit/internal/buzzword.Client.Save":      {desc: "buzzword server (Save)", params: []int{0}},
	// Transport request bodies (netsim carries exactly these bytes).
	"net/http.NewRequest":            {desc: "HTTP request body", params: []int{2}},
	"net/http.NewRequestWithContext": {desc: "HTTP request body", params: []int{3}},
	"net/http.Post":                  {desc: "HTTP request body", params: []int{2}},
	"net/http.PostForm":              {desc: "HTTP request body", params: []int{1}},
	"net/http.Client.Post":           {desc: "HTTP request body", params: []int{2}},
	"net/http.Client.PostForm":       {desc: "HTTP request body", params: []int{1}},
	// Any round-trip through the http.RoundTripper interface hands the
	// request to a transport chain the analysis treats as untrusted:
	// dispatch through external interfaces is not resolved (see DESIGN.md
	// §14), so the interface method itself is the boundary.
	"net/http.RoundTripper.RoundTrip":                   {desc: "HTTP transport round-trip", params: []int{0}},
	"privedit/internal/netsim.DelayTransport.RoundTrip": {desc: "simulated network transport", params: []int{0}},
	"privedit/internal/netsim.FaultTransport.RoundTrip": {desc: "simulated network transport", params: []int{0}},
	// Unencrypted auxiliary channels (the MessageGuard lesson): traces,
	// span names, metric names and label values.
	"privedit/internal/trace.Span.Annotate":     {desc: "trace annotation", params: []int{0, 1}},
	"privedit/internal/trace.Start":             {desc: "span name", params: []int{1}},
	"privedit/internal/trace.Tracer.Root":       {desc: "span name", params: []int{1}},
	"privedit/internal/obs.NewCounter":          {desc: "metric name/label", params: []int{0}, variadic: true},
	"privedit/internal/obs.NewGauge":            {desc: "metric name/label", params: []int{0}, variadic: true},
	"privedit/internal/obs.Registry.NewCounter": {desc: "metric name/label", params: []int{0}, variadic: true},
	"privedit/internal/obs.Registry.NewGauge":   {desc: "metric name/label", params: []int{0}, variadic: true},
	"privedit/internal/obs.Registry.Exemplar":   {desc: "metric name/label", params: []int{0}, variadic: true},
}

// Process output — stdout, stderr and the process log — is an unencrypted
// auxiliary channel as well, but only in library code (internalOnly).
func init() {
	// out builds the spec for one print function: every variadic operand
	// is a sink, and so is the format string of the f-forms.
	out := func(desc string, format bool, formatIdx int, stdStream bool) *sinkSpec {
		spec := &sinkSpec{desc: desc, variadic: true, internalOnly: true, stdStream: stdStream}
		if format {
			spec.params = []int{formatIdx}
		}
		return spec
	}
	for _, suffix := range []string{"", "ln", "f"} {
		format := suffix == "f"
		builtinSinks["fmt.Print"+suffix] = out("stdout", format, 0, false)
		builtinSinks["fmt.Fprint"+suffix] = out("stdout/stderr", format, 1, true)
		for _, verb := range []string{"Print", "Fatal", "Panic"} {
			builtinSinks["log."+verb+suffix] = out("process log", format, 0, false)
			builtinSinks["log.Logger."+verb+suffix] = out("process log", format, 0, false)
		}
	}
	builtinSinks["log.Output"] = &sinkSpec{desc: "process log", params: []int{1}, internalOnly: true}
	builtinSinks["log.Logger.Output"] = &sinkSpec{desc: "process log", params: []int{1}, internalOnly: true}
}

// errorEscapeSink is the description used when a tainted error value is
// returned from an exported function: errors ride HTTP responses and
// process logs, outside the encryption envelope.
const errorEscapeSink = "error escaping exported API"

// Analyze runs the full interprocedural analysis over the given packages.
// All packages must share fset. Deterministic: same inputs, same output
// order.
func Analyze(fset *token.FileSet, pkgs []*Package) *Result {
	a := newAnalyzer(fset, pkgs)
	a.run()
	return a.result()
}

// symbolKey names a function for the spec tables: "pkgpath.Func" for
// package functions, "pkgpath.Type.Method" for methods (pointer receivers
// are normalized away). Generic instantiations key as their origin.
func symbolKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			// Interface method: key on the interface's package+name is not
			// possible without the named type; fall back to pkg.Method.
			if fn.Pkg() != nil {
				return fn.Pkg().Path() + "." + fn.Name()
			}
			return fn.Name()
		}
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name() + "." + fn.Name()
		}
		return obj.Name() + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// taintCapable reports whether a value of type t can carry plaintext:
// strings, bytes, runes (single characters are content), errors,
// interfaces, and aggregates containing them. Plain numeric and boolean
// types cannot — which is what makes length/offset-only diagnostics
// provably clean.
func taintCapable(t types.Type) bool {
	return capable(t, make(map[types.Type]bool))
}

func capable(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch u.Kind() {
		case types.String, types.UntypedString, types.Uint8, types.Int32, types.UntypedRune:
			return true
		}
		return false
	case *types.Slice:
		return capable(u.Elem(), seen)
	case *types.Array:
		return capable(u.Elem(), seen)
	case *types.Map:
		return capable(u.Key(), seen) || capable(u.Elem(), seen)
	case *types.Chan:
		return capable(u.Elem(), seen)
	case *types.Pointer:
		return capable(u.Elem(), seen)
	case *types.Interface:
		return true // includes error and any
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if capable(u.Field(i).Type(), seen) {
				return true
			}
		}
		return false
	default:
		// Signatures, tuples, type params: conservatively capable.
		_, isSig := u.(*types.Signature)
		return !isSig
	}
}

// RenderSteps formats a path as "note @ file:line -> ...", with file paths
// made relative to root when possible.
func RenderSteps(fset *token.FileSet, steps []Step, root string) string {
	var b strings.Builder
	for i, s := range steps {
		if i > 0 {
			b.WriteString(" -> ")
		}
		p := fset.Position(s.Pos)
		file := p.Filename
		if root != "" {
			if rel, ok := strings.CutPrefix(file, root+"/"); ok {
				file = rel
			}
		}
		fmt.Fprintf(&b, "%s @ %s:%d", s.Note, file, p.Line)
	}
	return b.String()
}
