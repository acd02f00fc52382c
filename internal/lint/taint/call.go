// Call evaluation: the interprocedural glue. A call site resolves its
// callee (direct, method, method value, interface dispatch), checks the
// builtin sink/source spec tables, composes the callee's summary into
// the caller's state, and falls back to a conservative default for
// functions outside the analyzed set.
package taint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// evalCall returns one abstract value per call result.
func (ec *evalCtx) evalCall(call *ast.CallExpr) []*val {
	info := ec.info()

	// Conversion: string(b), []byte(s), T(x) — taint passes through, but
	// only into types that can carry content: int(b[0]) is a count, and
	// counts are clean by definition.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			v := ec.evalExpr(call.Args[0])
			if !taintCapable(tv.Type) {
				return []*val{nil}
			}
			return []*val{elemView(v)}
		}
		return []*val{nil}
	}

	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return ec.evalBuiltin(b, call)
		}
	}

	// Resolve the callee.
	var fn *types.Func
	var recvVal *val
	var recvExpr ast.Expr
	fun := unparen(call.Fun)
	// Generic instantiation wraps the callee in an index expression.
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = unparen(ix.X)
	} else if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = unparen(ix.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := info.Uses[f].(type) {
		case *types.Func:
			fn = obj
		default:
			if v := ec.lookup(obj); v != nil && v.bound != nil {
				fn = v.bound.fn
				recvVal = v.bound.recv
			}
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[f]; sel != nil && sel.Kind() == types.MethodVal {
			fn, _ = sel.Obj().(*types.Func)
			recvExpr = f.X
			recvVal = ec.evalExpr(f.X)
		} else if obj, ok := info.Uses[f.Sel].(*types.Func); ok {
			fn = obj
		} else if v := ec.evalSelector(f); v != nil && v.bound != nil {
			fn = v.bound.fn
			recvVal = v.bound.recv
		}
	case *ast.FuncLit:
		ec.execClosure(f)
	}

	// Evaluate arguments (in order, for side effects too).
	argVals := make([]*val, len(call.Args))
	for i, arg := range call.Args {
		argVals[i] = ec.evalExpr(arg)
	}

	nres := ec.callResultCount(call)
	if fn == nil {
		return ec.defaultPropagate(call, nil, nres, recvVal, recvExpr, argVals)
	}
	fn = originOf(fn)

	// Assemble the callee's input row: receiver first, then params.
	sig, _ := fn.Type().(*types.Signature)
	hasRecv := sig != nil && sig.Recv() != nil
	var inputVals []*val
	var inputExprs []ast.Expr
	if hasRecv {
		inputVals = append(inputVals, recvVal)
		inputExprs = append(inputExprs, recvExpr)
	}
	for i := range call.Args {
		inputVals = append(inputVals, argVals[i])
		inputExprs = append(inputExprs, call.Args[i])
	}

	results := make([]*val, nres)

	// 1. Builtin sink spec (trust-boundary crossings).
	if spec, ok := builtinSinks[symbolKey(fn)]; ok {
		ec.applySinkSpec(spec, fn, sig, call, argVals)
	}

	// 2. Source spec (builtin table or //taint:source annotation).
	spec := ec.a.sourceSpecFor(fn)
	if spec != nil {
		ec.applySourceSpec(spec, call, results)
	}

	// 3. Sanitizer: outputs are sanctioned ciphertext. Sinks reached
	// inside the sanitizer body are still honored (a sanitizer must not
	// trace or ship its plaintext input), but no taint flows out.
	if ec.a.isSanitizer(fn) {
		if callee := ec.a.funcs[fn]; callee != nil {
			ec.applySummarySinks(callee, call, inputVals)
		}
		return results
	}

	// 4. In-module callee: compose its summary. Results the source spec
	// covers keep only the spec's taint (see applySummary).
	if callee := ec.a.funcs[fn]; callee != nil {
		ec.applySummary(callee, spec, call, inputVals, inputExprs, results)
		return results
	}

	// 5. Interface method: merge every in-module implementation.
	if impls := ec.a.implementations(fn); len(impls) > 0 {
		for _, impl := range impls {
			implSpec := ec.a.sourceSpecFor(impl.fn)
			if implSpec != nil {
				ec.applySourceSpec(implSpec, call, results)
			}
			if spec, ok := builtinSinks[symbolKey(impl.fn)]; ok {
				implSig, _ := impl.fn.Type().(*types.Signature)
				ec.applySinkSpec(spec, impl.fn, implSig, call, argVals)
			}
			if ec.a.isSanitizer(impl.fn) {
				ec.applySummarySinks(impl, call, inputVals)
				continue
			}
			ec.applySummary(impl, implSpec, call, inputVals, inputExprs, results)
		}
		return results
	}

	// 6. Unknown/external callee: conservative default.
	return ec.defaultPropagateInto(call, fn, nres, recvVal, recvExpr, argVals, results)
}

// contentFormatters are the external constructors that embed their
// operands in the value they build. Every other external callee's error
// result describes the failure without containing the inputs (io.ReadAll
// does not put the buffer in its error), so it stays clean — the lever
// that keeps the error-escape sink about content, not causality. The
// strconv parsers are here because *strconv.NumError carries the input
// string verbatim.
var contentFormatters = map[string]bool{
	"fmt.Errorf":           true,
	"errors.New":           true,
	"errors.Join":          true,
	"strconv.Atoi":         true,
	"strconv.ParseInt":     true,
	"strconv.ParseUint":    true,
	"strconv.ParseFloat":   true,
	"strconv.ParseBool":    true,
	"strconv.Unquote":      true,
	"strconv.ParseComplex": true,
}

// applySinkSpec fires a spec'd sink for each tainted argument position.
func (ec *evalCtx) applySinkSpec(spec *sinkSpec, fn *types.Func, sig *types.Signature, call *ast.CallExpr, argVals []*val) {
	if spec.internalOnly && !ec.fi.inInternalPkg() ||
		spec.stdStream && !isStdStream(ec.info(), call.Args[0]) {
		return
	}
	params := append([]int(nil), spec.params...)
	if spec.variadic && sig != nil && sig.Variadic() {
		for i := sig.Params().Len() - 1; i < len(call.Args); i++ {
			params = append(params, i)
		}
	}
	for _, p := range params {
		if p < 0 || p >= len(argVals) {
			continue
		}
		ec.fireSink(spec.desc, call.Args[p].Pos(), fn, argVals[p])
	}
}

// isStdStream reports whether e names os.Stdout or os.Stderr.
func isStdStream(info *types.Info, e ast.Expr) bool {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	v, ok := info.Uses[sel.Sel].(*types.Var)
	return ok && v.Pkg() != nil && v.Pkg().Path() == "os" && (v.Name() == "Stdout" || v.Name() == "Stderr")
}

// fireSink reports (concrete taint) or records (symbolic taint) a sink
// hit for value v at pos.
func (ec *evalCtx) fireSink(desc string, pos token.Pos, fn *types.Func, v *val) {
	if v == nil {
		return
	}
	sinkStep := Step{Pos: pos, Note: "sink: " + desc + " (" + displayName(fn) + ")"}
	for _, o := range coverOrigins(v, "") {
		ext := o.extend(sinkStep)
		if o.input == -1 {
			ec.a.report(desc, pos, ext.steps)
			continue
		}
		if ec.fi.sum.addSink(&condSink{
			cond:  flowCond{input: o.input, field: o.field},
			desc:  desc,
			pos:   pos,
			steps: ext.steps,
		}) {
			ec.a.changed = true
		}
	}
}

// applySourceSpec taints spec'd results and out-parameters.
func (ec *evalCtx) applySourceSpec(spec *sourceSpec, call *ast.CallExpr, results []*val) {
	src := factVal(&fact{origins: []origin{{
		input: -1,
		steps: []Step{{Pos: call.Pos(), Note: "source: " + spec.desc}},
	}}})
	for _, r := range spec.results {
		if r >= 0 && r < len(results) {
			results[r] = mergeVals(results[r], src)
		}
	}
	for _, p := range spec.outParams {
		if p >= 0 && p < len(call.Args) {
			ec.assignValTo(call.Args[p], src)
		}
	}
}

// applySummary composes a callee summary into the caller: result taints,
// writes through arguments, and conditional sinks. A result that spec,
// the callee's source spec (nil if none), covers is already tainted at
// the call; the summary's path to it from inside the callee names the
// same plaintext, and composing it too would report one source → sink
// site twice, so it is skipped.
func (ec *evalCtx) applySummary(callee *funcInfo, spec *sourceSpec, call *ast.CallExpr, inputVals []*val, inputExprs []ast.Expr, results []*val) {
	sum := callee.sum
	display := displayName(callee.fn)
	intoStep := Step{Pos: call.Pos(), Note: "passed to " + display}
	viaStep := Step{Pos: call.Pos(), Note: "tainted by " + display}

	keys := make([]sumKey, 0, len(sum.flows))
	for k := range sum.flows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].out != keys[j].out {
			return keys[i].out < keys[j].out
		}
		return keys[i].outField < keys[j].outField
	})
	for _, key := range keys {
		conds := make([]flowCond, 0, len(sum.flows[key]))
		for c := range sum.flows[key] {
			conds = append(conds, c)
		}
		sort.Slice(conds, func(i, j int) bool {
			if conds[i].input != conds[j].input {
				return conds[i].input < conds[j].input
			}
			return conds[i].field < conds[j].field
		})
		out := &fact{}
		for _, cond := range conds {
			tmpl := sum.flows[key][cond]
			if cond == unconditional {
				o := origin{input: -1, steps: append(append([]Step(nil), tmpl.steps...), viaStep)}
				if len(o.steps) > maxStepsPerPath {
					o.steps = o.steps[:maxStepsPerPath]
				}
				out.addOrigin(o)
				continue
			}
			if cond.input < 0 || cond.input >= len(inputVals) {
				continue
			}
			for _, base := range coverOrigins(inputVals[cond.input], cond.field) {
				ext := base.extend(append([]Step{intoStep}, tmpl.steps...)...)
				out.addOrigin(origin{input: ext.input, field: ext.field, steps: ext.steps})
			}
		}
		if len(out.origins) == 0 {
			continue
		}
		v := factVal(out)
		if key.outField != "" {
			v = &val{symInput: -1, fields: map[string]*fact{key.outField: out}}
		}
		if key.out < sum.numResults {
			if key.out < len(results) && !spec.covers(key.out) {
				results[key.out] = mergeVals(results[key.out], v)
			}
			continue
		}
		inIdx := key.out - sum.numResults
		if inIdx >= 0 && inIdx < len(inputExprs) && inputExprs[inIdx] != nil {
			ec.assignValTo(inputExprs[inIdx], v)
		}
	}

	ec.applySummarySinks(callee, call, inputVals)
}

// applySummarySinks fires the callee's conditional sinks against the
// caller's argument taints.
func (ec *evalCtx) applySummarySinks(callee *funcInfo, call *ast.CallExpr, inputVals []*val) {
	display := displayName(callee.fn)
	intoStep := Step{Pos: call.Pos(), Note: "passed to " + display}
	for _, cs := range callee.sum.sinks {
		if cs.cond.input < 0 || cs.cond.input >= len(inputVals) {
			continue
		}
		for _, base := range coverOrigins(inputVals[cs.cond.input], cs.cond.field) {
			ext := base.extend(append([]Step{intoStep}, cs.steps...)...)
			if base.input == -1 {
				ec.a.report(cs.desc, cs.pos, ext.steps)
				continue
			}
			if ec.fi.sum.addSink(&condSink{
				cond:  flowCond{input: base.input, field: base.field},
				desc:  cs.desc,
				pos:   cs.pos,
				steps: ext.steps,
			}) {
				ec.a.changed = true
			}
		}
	}
}

// defaultPropagate handles calls to unknown functions: every result is
// tainted iff any argument (or the receiver) is, and only when the
// result type can carry plaintext. Error results are the exception: they
// stay clean unless the callee is a content-embedding constructor (see
// contentFormatters).
func (ec *evalCtx) defaultPropagate(call *ast.CallExpr, fn *types.Func, nres int, recvVal *val, recvExpr ast.Expr, argVals []*val) []*val {
	return ec.defaultPropagateInto(call, fn, nres, recvVal, recvExpr, argVals, make([]*val, nres))
}

func (ec *evalCtx) defaultPropagateInto(call *ast.CallExpr, fn *types.Func, nres int, recvVal *val, recvExpr ast.Expr, argVals []*val, results []*val) []*val {
	merged := mergeVals(append([]*val{recvVal}, argVals...)...)
	if merged == nil || merged.isClean() {
		return results
	}
	tainted := factVal(collapse(merged))
	if tainted == nil {
		return results
	}
	step := Step{Pos: call.Pos(), Note: "through call"}
	if f := tainted.whole; f != nil {
		ext := &fact{}
		for _, o := range f.origins {
			ext.addOrigin(o.extend(step))
		}
		tainted = factVal(ext)
	}
	resTypes := ec.callResultTypes(call)
	for i := 0; i < nres && i < len(results); i++ {
		if i < len(resTypes) && !taintCapable(resTypes[i]) {
			continue
		}
		if i < len(resTypes) && isErrorType(resTypes[i]) && !contentFormatters[symbolKey(fn)] {
			continue
		}
		results[i] = mergeVals(results[i], tainted)
	}
	// A method on an external type may retain its arguments
	// (strings.Builder.WriteString): taint the receiver object.
	if recvExpr != nil {
		argOnly := mergeVals(argVals...)
		if argOnly != nil && !argOnly.isClean() {
			ec.assignValTo(recvExpr, factVal(collapse(argOnly)))
		}
	}
	return results
}

// evalBuiltin models append/copy and keeps the rest inert.
func (ec *evalCtx) evalBuiltin(b *types.Builtin, call *ast.CallExpr) []*val {
	switch b.Name() {
	case "append":
		vals := make([]*val, len(call.Args))
		for i, a := range call.Args {
			vals[i] = ec.evalExpr(a)
		}
		return []*val{elemView(mergeVals(vals...))}
	case "copy":
		if len(call.Args) == 2 {
			src := ec.evalExpr(call.Args[1])
			ec.evalExpr(call.Args[0])
			if f := collapse(src); f != nil {
				ec.assignElem(call.Args[0], factVal(f), call.Pos())
			}
		}
		return []*val{nil}
	case "min", "max":
		vals := make([]*val, len(call.Args))
		for i, a := range call.Args {
			vals[i] = ec.evalExpr(a)
		}
		return []*val{elemView(mergeVals(vals...))}
	default:
		// len, cap, new, make, delete, close, clear, panic, print, ...
		for _, a := range call.Args {
			ec.evalExpr(a)
		}
		return []*val{nil}
	}
}

func (ec *evalCtx) callResultCount(call *ast.CallExpr) int {
	return len(ec.callResultTypes(call))
}

func (ec *evalCtx) callResultTypes(call *ast.CallExpr) []types.Type {
	tv, ok := ec.info().Types[call]
	if !ok || tv.Type == nil || tv.IsVoid() {
		return nil
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		out := make([]types.Type, tup.Len())
		for i := 0; i < tup.Len(); i++ {
			out[i] = tup.At(i).Type()
		}
		return out
	}
	return []types.Type{tv.Type}
}
