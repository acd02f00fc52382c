package lint

import (
	"go/ast"
	"go/constant"
	"regexp"
)

// SpanName is the tracing companion of MetricName: every span started
// through internal/trace (Start, Tracer.Root, Join) must use a
// compile-time-constant snake_case name. editbench's per-layer ledger
// and the /debug/traces ?root= filter both match span names literally; a
// dynamically built or CamelCase name would trace fine and silently fall
// out of every aggregation. Test files are exempt so unit tests can spin
// throwaway spans.
var SpanName = &Analyzer{
	Name: "span-name",
	Doc:  "trace span starts must use constant snake_case names",
	Run:  runSpanName,
}

// tracePkg is the tracing package whose span-start calls are checked.
const tracePkg = "internal/trace"

var spanNameRE = regexp.MustCompile(`^[a-z0-9]+(_[a-z0-9]+)*$`)

// spanStarters maps the trace functions that begin a span to the index of
// their name argument.
var spanStarters = map[string]int{
	"Start": 1, // Start(ctx, name)
	"Root":  1, // (*Tracer).Root(ctx, name)
	"Join":  2, // Join(ctx, header, name)
}

func runSpanName(u *Unit, m *Module, report reporter) {
	selfPkg := modulePkg(u, m) == tracePkg
	inspectFiles(u, true, func(f *ast.File, n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(u, call)
		if fn == nil {
			return true
		}
		argIdx, ok := spanStarters[fn.Name()]
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != m.Path+"/"+tracePkg {
			return true
		}
		if len(call.Args) <= argIdx {
			return true
		}
		arg := call.Args[argIdx]
		tv, ok := u.Info.Types[arg]
		if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
			// The trace package's own forwarders (Start -> Root, Join ->
			// rootWithID) legitimately pass the name through.
			if !selfPkg {
				report(arg.Pos(), "trace.%s span name must be a compile-time string constant so aggregations can match it", fn.Name())
			}
			return true
		}
		name := constant.StringVal(tv.Value)
		if !spanNameRE.MatchString(name) {
			report(arg.Pos(), "span name %q must be snake_case (regexp %s)", name, spanNameRE)
		}
		return true
	})
}
