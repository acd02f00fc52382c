// Statement execution and expression evaluation for the abstract
// interpreter. Flow-insensitive within a function (assignments merge,
// never kill), which over-approximates but keeps loops and aliasing
// sound for the patterns the module uses.
package taint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

func (ec *evalCtx) info() *types.Info { return ec.fi.pkg.Info }

func (ec *evalCtx) objOf(id *ast.Ident) types.Object {
	if obj := ec.info().Uses[id]; obj != nil {
		return obj
	}
	return ec.info().Defs[id]
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// --- statements -------------------------------------------------------

func (ec *evalCtx) execStmt(s ast.Stmt) {
	switch st := s.(type) {
	case nil:
	case *ast.BlockStmt:
		if st == nil {
			return
		}
		for _, sub := range st.List {
			ec.execStmt(sub)
		}
	case *ast.ExprStmt:
		ec.evalExpr(st.X)
	case *ast.AssignStmt:
		ec.execAssign(st)
	case *ast.DeclStmt:
		ec.execDecl(st)
	case *ast.ReturnStmt:
		ec.execReturn(st)
	case *ast.IfStmt:
		ec.execStmt(st.Init)
		ec.evalExpr(st.Cond)
		ec.execStmt(st.Body)
		ec.execStmt(st.Else)
	case *ast.ForStmt:
		ec.execStmt(st.Init)
		ec.evalExpr(st.Cond)
		ec.execStmt(st.Body)
		ec.execStmt(st.Post)
	case *ast.RangeStmt:
		ec.execRange(st)
	case *ast.SwitchStmt:
		ec.execStmt(st.Init)
		ec.evalExpr(st.Tag)
		for _, clause := range st.Body.List {
			cc, ok := clause.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, e := range cc.List {
				ec.evalExpr(e)
			}
			for _, sub := range cc.Body {
				ec.execStmt(sub)
			}
		}
	case *ast.TypeSwitchStmt:
		ec.execTypeSwitch(st)
	case *ast.SelectStmt:
		for _, clause := range st.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			ec.execStmt(cc.Comm)
			for _, sub := range cc.Body {
				ec.execStmt(sub)
			}
		}
	case *ast.LabeledStmt:
		ec.execStmt(st.Stmt)
	case *ast.GoStmt:
		ec.evalExpr(st.Call)
	case *ast.DeferStmt:
		ec.evalExpr(st.Call)
	case *ast.SendStmt:
		v := ec.evalExpr(st.Value)
		ec.assignValTo(st.Chan, factVal(collapse(v)))
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
	}
}

func (ec *evalCtx) execAssign(st *ast.AssignStmt) {
	// Remember closure literals bound to names so direct calls of the
	// variable still execute the body (already executed at eval time).
	for i, rhs := range st.Rhs {
		if lit, ok := unparen(rhs).(*ast.FuncLit); ok && i < len(st.Lhs) {
			if id, ok := unparen(st.Lhs[i]).(*ast.Ident); ok {
				if obj := ec.objOf(id); obj != nil {
					ec.closures[obj] = lit
				}
			}
		}
	}
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		vals := ec.evalMulti(st.Rhs[0], len(st.Lhs))
		for i, lhs := range st.Lhs {
			if i < len(vals) {
				ec.assignValTo(lhs, vals[i])
			}
		}
		return
	}
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		ec.assignValTo(lhs, ec.evalExpr(st.Rhs[i]))
	}
}

func (ec *evalCtx) execDecl(st *ast.DeclStmt) {
	gd, ok := st.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			vals := ec.evalMulti(vs.Values[0], len(vs.Names))
			for i, name := range vs.Names {
				if i < len(vals) {
					ec.assignValTo(name, vals[i])
				}
			}
			continue
		}
		for i, name := range vs.Names {
			if i < len(vs.Values) {
				ec.assignValTo(name, ec.evalExpr(vs.Values[i]))
			}
		}
	}
}

func (ec *evalCtx) execRange(st *ast.RangeStmt) {
	xv := ec.evalExpr(st.X)
	ev := elemView(xv)
	var keyVal *val
	if tv, ok := ec.info().Types[st.X]; ok && tv.Type != nil {
		switch tv.Type.Underlying().(type) {
		case *types.Map, *types.Chan:
			keyVal = ev
		}
	}
	if st.Key != nil {
		ec.assignValTo(st.Key, keyVal)
	}
	if st.Value != nil {
		ec.assignValTo(st.Value, ev)
	}
	ec.execStmt(st.Body)
}

func (ec *evalCtx) execTypeSwitch(st *ast.TypeSwitchStmt) {
	ec.execStmt(st.Init)
	var tagVal *val
	switch assign := st.Assign.(type) {
	case *ast.ExprStmt:
		if ta, ok := unparen(assign.X).(*ast.TypeAssertExpr); ok {
			tagVal = ec.evalExpr(ta.X)
		}
	case *ast.AssignStmt:
		if len(assign.Rhs) == 1 {
			if ta, ok := unparen(assign.Rhs[0]).(*ast.TypeAssertExpr); ok {
				tagVal = ec.evalExpr(ta.X)
			}
		}
	}
	for _, clause := range st.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		if obj := ec.info().Implicits[cc]; obj != nil && tagVal != nil {
			ec.mergeState(obj, tagVal)
		}
		for _, sub := range cc.Body {
			ec.execStmt(sub)
		}
	}
}

// execReturn records result flows into the summary, checks the
// error-escape sink, and reports source-rooted escapes.
func (ec *evalCtx) execReturn(st *ast.ReturnStmt) {
	if ec.inClosure {
		for _, e := range st.Results {
			ec.evalExpr(e)
		}
		return
	}
	fi := ec.fi
	var vals []*val
	switch {
	case len(st.Results) == 0:
		// Naked return: read the named result variables.
		vals = make([]*val, len(fi.results))
		for i, r := range fi.results {
			vals[i] = ec.lookup(r)
		}
	case len(st.Results) == 1 && len(fi.results) > 1:
		vals = ec.evalMulti(st.Results[0], len(fi.results))
	default:
		vals = make([]*val, len(st.Results))
		for i, e := range st.Results {
			vals[i] = ec.evalExpr(e)
		}
	}
	for i, v := range vals {
		if i >= len(fi.results) || v == nil {
			continue
		}
		ec.recordResultFlows(i, v, st.Pos())
	}
}

func (ec *evalCtx) recordResultFlows(idx int, v *val, pos token.Pos) {
	fi := ec.fi
	// Results that cannot carry content (lengths, offsets, counts, bools)
	// never enter the summary: a Len() derived from plaintext is exactly
	// the length/offset-only diagnostic the rule wants code to use.
	if !taintCapable(fi.results[idx].Type()) {
		return
	}
	retStep := Step{Pos: pos, Note: "returned by " + displayName(fi.fn)}

	record := func(outField string, origins []origin) {
		for _, o := range origins {
			cond := unconditional
			if o.input >= 0 {
				cond = flowCond{input: o.input, field: o.field}
			}
			ext := o.extend(retStep)
			if fi.sum.addFlow(sumKey{out: idx, outField: outField}, cond, &flowTmpl{steps: ext.steps}) {
				ec.a.changed = true
			}
		}
	}
	var whole []origin
	if v.symInput >= 0 {
		whole = append(whole, origin{input: v.symInput, field: v.symField})
	}
	if v.whole != nil {
		whole = append(whole, v.whole.origins...)
	}
	record("", whole)
	for _, name := range sortedFieldNames(v.fields) {
		record(name, v.fields[name].origins)
	}

	// Error-escape sink: a tainted error returned from an exported
	// function of an internal package rides logs and HTTP responses.
	if fi.errorEscapeApplies() && isErrorType(fi.results[idx].Type()) {
		sinkStep := Step{Pos: pos, Note: "sink: " + errorEscapeSink + " " + displayName(fi.fn)}
		for _, o := range coverOrigins(v, "") {
			ext := o.extend(sinkStep)
			if o.input == -1 {
				ec.a.report(errorEscapeSink, pos, ext.steps)
			} else if fi.sum.addSink(&condSink{
				cond:  flowCond{input: o.input, field: o.field},
				desc:  errorEscapeSink,
				pos:   pos,
				steps: ext.steps,
			}) {
				ec.a.changed = true
			}
		}
	}
}

func (fi *funcInfo) errorEscapeApplies() bool {
	return fi.verb != VerbSanitizer && fi.fn.Exported() && fi.inInternalPkg()
}

// inInternalPkg reports whether fi lives in library code: a package under
// an internal/ directory.
func (fi *funcInfo) inInternalPkg() bool {
	p := fi.pkg.Path
	return strings.HasPrefix(p, "internal/") || strings.Contains(p, "/internal/")
}

// --- assignment -------------------------------------------------------

// assignValTo merges v into the abstract location named by lhs. Writes
// through inputs (receiver fields, pointer params, out-slices) are also
// recorded as summary out-flows.
func (ec *evalCtx) assignValTo(lhs ast.Expr, v *val) {
	if v == nil {
		return
	}
	switch l := unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		ec.mergeState(ec.objOf(l), v)
	case *ast.SelectorExpr:
		sel := ec.info().Selections[l]
		if sel == nil || sel.Kind() != types.FieldVal {
			return // package-level var: untracked (documented unsoundness)
		}
		if fv, ok := sel.Obj().(*types.Var); ok && ec.a.annots.clean[fv] {
			// //taint:clean contract: the write itself is the boundary.
			// Tainted data stored here would poison every "clean" read, so
			// it is reported as a sink; clean writes are dropped entirely.
			ec.checkCleanFieldWrite(fv, v, l.Pos())
			return
		}
		root, field := rootAndFirstField(l)
		f := collapse(v)
		if f == nil || root == nil {
			return
		}
		obj := ec.objOf(root)
		if _, ok := obj.(*types.Var); !ok {
			return
		}
		ec.mergeField(obj, field, f)
		if idx := ec.inputIndexOf(obj); idx >= 0 {
			ec.recordInputWrite(idx, field, f, l.Pos())
		}
	case *ast.IndexExpr:
		ec.assignElem(l.X, v, l.Pos())
	case *ast.StarExpr:
		ec.assignElem(l.X, v, l.Pos())
	case *ast.SliceExpr:
		ec.assignElem(l.X, v, l.Pos())
	}
}

// checkCleanFieldWrite enforces the //taint:clean contract. Concrete
// taint reports immediately; input-conditioned taint becomes a condSink
// so the enforcement is interprocedural, like every other sink.
func (ec *evalCtx) checkCleanFieldWrite(fv *types.Var, v *val, pos token.Pos) {
	desc := "write into //taint:clean field " + fieldDisplay(fv)
	sinkStep := Step{Pos: pos, Note: "sink: " + desc}
	for _, o := range coverOrigins(v, "") {
		ext := o.extend(sinkStep)
		if o.input == -1 {
			ec.a.report(desc, pos, ext.steps)
		} else if ec.fi.sum.addSink(&condSink{
			cond:  flowCond{input: o.input, field: o.field},
			desc:  desc,
			pos:   pos,
			steps: ext.steps,
		}) {
			ec.a.changed = true
		}
	}
}

// assignElem taints the container/pointee behind base (xs[i] = v,
// *p = v), recording an input write when base is an input.
func (ec *evalCtx) assignElem(base ast.Expr, v *val, pos token.Pos) {
	f := collapse(v)
	if f == nil {
		return
	}
	ec.assignValTo(base, factVal(f))
	if id, ok := unparen(base).(*ast.Ident); ok {
		if idx := ec.inputIndexOf(ec.objOf(id)); idx >= 0 {
			ec.recordInputWrite(idx, "", f, pos)
		}
	}
}

// rootAndFirstField resolves x.a.b... to the root identifier and the
// first field hop ("a"), the granularity summaries track.
func rootAndFirstField(e *ast.SelectorExpr) (*ast.Ident, string) {
	cur := e
	for {
		switch x := unparen(peelDeref(cur.X)).(type) {
		case *ast.Ident:
			return x, cur.Sel.Name
		case *ast.SelectorExpr:
			cur = x
		default:
			return nil, ""
		}
	}
}

func peelDeref(e ast.Expr) ast.Expr {
	for {
		switch x := unparen(e).(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return x
		}
	}
}

func (ec *evalCtx) inputIndexOf(obj types.Object) int {
	if obj == nil {
		return -1
	}
	for i, in := range ec.fi.inputs {
		if in == obj {
			return i
		}
	}
	return -1
}

// recordInputWrite records "taint written through input idx (field)" as
// a summary out-flow, so call sites taint the corresponding argument.
func (ec *evalCtx) recordInputWrite(idx int, field string, f *fact, pos token.Pos) {
	fi := ec.fi
	key := sumKey{out: fi.sum.numResults + idx, outField: field}
	wStep := Step{Pos: pos, Note: "written through " + fi.inputs[idx].Name() + " in " + displayName(fi.fn)}
	for _, o := range f.origins {
		cond := unconditional
		if o.input >= 0 {
			cond = flowCond{input: o.input, field: o.field}
		}
		ext := o.extend(wStep)
		if fi.sum.addFlow(key, cond, &flowTmpl{steps: ext.steps}) {
			ec.a.changed = true
		}
	}
}

// --- expressions ------------------------------------------------------

func (ec *evalCtx) evalExpr(e ast.Expr) *val {
	switch x := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		obj := ec.objOf(x)
		if v := ec.lookup(obj); v != nil {
			return v
		}
		if fn, ok := obj.(*types.Func); ok {
			return &val{symInput: -1, bound: &binding{fn: fn}}
		}
		return nil
	case *ast.BasicLit:
		return nil
	case *ast.ParenExpr:
		return ec.evalExpr(x.X)
	case *ast.SelectorExpr:
		return ec.evalSelector(x)
	case *ast.CallExpr:
		vs := ec.evalCall(x)
		if len(vs) > 0 {
			return vs[0]
		}
		return nil
	case *ast.IndexExpr:
		if tv, ok := ec.info().Types[x.X]; ok && tv.Type != nil {
			if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
				return ec.evalExpr(x.X) // generic instantiation
			}
		}
		ec.evalExpr(x.Index)
		return elemView(ec.evalExpr(x.X))
	case *ast.IndexListExpr:
		return ec.evalExpr(x.X)
	case *ast.SliceExpr:
		return ec.evalExpr(x.X) // slices alias their backing array
	case *ast.StarExpr:
		return ec.evalExpr(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return elemView(ec.evalExpr(x.X))
		}
		return ec.evalExpr(x.X) // incl. &x: alias
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ, token.LAND, token.LOR:
			ec.evalExpr(x.X)
			ec.evalExpr(x.Y)
			return nil
		}
		return mergeVals(ec.evalExpr(x.X), ec.evalExpr(x.Y))
	case *ast.CompositeLit:
		return ec.evalComposite(x)
	case *ast.TypeAssertExpr:
		return ec.evalExpr(x.X)
	case *ast.FuncLit:
		ec.execClosure(x)
		return nil
	case *ast.KeyValueExpr:
		return ec.evalExpr(x.Value)
	}
	return nil
}

// elemView is the abstract value of one element of a container: the
// container's taint collapsed onto the element.
func elemView(v *val) *val {
	if v == nil {
		return nil
	}
	out := mergeVals(v)
	if out != nil {
		out.bound = nil
	}
	return out
}

func (ec *evalCtx) evalSelector(x *ast.SelectorExpr) *val {
	sel := ec.info().Selections[x]
	if sel == nil {
		// Qualified identifier: pkg.Func or pkg.Var.
		obj := ec.info().Uses[x.Sel]
		if fn, ok := obj.(*types.Func); ok {
			return &val{symInput: -1, bound: &binding{fn: fn}}
		}
		return ec.lookup(obj)
	}
	switch sel.Kind() {
	case types.FieldVal:
		base := ec.evalExpr(x.X)
		if !taintCapable(sel.Obj().Type()) {
			// Scalar projection of a tainted struct (resp.ContentLength,
			// list totals): length metadata, not content.
			return nil
		}
		// A //taint:clean field holds sanctioned wire form by contract;
		// the contract is enforced at every write site (assignValTo), so
		// reads through a tainted aggregate stay clean.
		if fv, ok := sel.Obj().(*types.Var); ok && ec.a.annots.clean[fv] {
			return nil
		}
		name := sel.Obj().Name()
		out := newVal()
		if base != nil {
			if base.symInput >= 0 {
				if base.symField == "" {
					out.symInput = base.symInput
					out.symField = name
				} else {
					out.whole, _ = mergeFacts(out.whole, &fact{origins: []origin{{input: base.symInput, field: base.symField}}})
				}
			}
			out.whole, _ = mergeFacts(out.whole, base.whole)
			if f := base.fields[name]; f != nil {
				out.whole, _ = mergeFacts(out.whole, f)
			}
		}
		// Intrinsic source: a read of a //taint:source field is plaintext
		// no matter how the struct got here.
		if fv, ok := sel.Obj().(*types.Var); ok && ec.a.annots.fields[fv] {
			src := Step{Pos: x.Pos(), Note: "source: read of //taint:source field " + fieldDisplay(fv)}
			out.whole, _ = mergeFacts(out.whole, &fact{origins: []origin{{input: -1, steps: []Step{src}}}})
		}
		if out.isClean() && out.bound == nil {
			return nil
		}
		return out
	case types.MethodVal:
		fn, _ := sel.Obj().(*types.Func)
		return &val{symInput: -1, bound: &binding{fn: fn, recv: ec.evalExpr(x.X)}}
	case types.MethodExpr:
		fn, _ := sel.Obj().(*types.Func)
		return &val{symInput: -1, bound: &binding{fn: fn}}
	}
	return nil
}

func (ec *evalCtx) evalComposite(x *ast.CompositeLit) *val {
	var st *types.Struct
	if tv, ok := ec.info().Types[x]; ok && tv.Type != nil {
		st, _ = tv.Type.Underlying().(*types.Struct)
	}
	out := newVal()
	if st != nil {
		for i, elt := range x.Elts {
			var name string
			var value ast.Expr
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					name = id.Name
				}
				value = kv.Value
			} else if i < st.NumFields() {
				name = st.Field(i).Name()
				value = elt
			}
			v := ec.evalExpr(value)
			if fobj := structFieldByName(st, name); fobj != nil && ec.a.annots.clean[fobj] {
				// Initializing a //taint:clean field is a write like any
				// other: enforce the contract, keep the field clean.
				if v != nil {
					ec.checkCleanFieldWrite(fobj, v, elt.Pos())
				}
				continue
			}
			f := collapse(v)
			if f == nil || name == "" {
				continue
			}
			if out.fields == nil {
				out.fields = make(map[string]*fact)
			}
			out.fields[name], _ = mergeFacts(out.fields[name], f)
		}
	} else {
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				out = mergeVals(out, ec.evalExpr(kv.Key), ec.evalExpr(kv.Value))
				continue
			}
			out = mergeVals(out, ec.evalExpr(elt))
		}
		if out == nil {
			return nil
		}
	}
	if out.isClean() && out.bound == nil {
		return nil
	}
	return out
}

// structFieldByName resolves a field object of st, or nil.
func structFieldByName(st *types.Struct, name string) *types.Var {
	if name == "" {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}

// execClosure executes a function literal's body in the enclosing
// context: captured variables share state, and intrinsic field sources
// inside the body fire normally. Return statements inside the literal do
// not contribute to the enclosing function's summary.
func (ec *evalCtx) execClosure(lit *ast.FuncLit) {
	saved := ec.inClosure
	ec.inClosure = true
	ec.execStmt(lit.Body)
	ec.inClosure = saved
}

// evalMulti evaluates a multi-value expression (call, type assert, map
// index, channel receive) into n abstract values.
func (ec *evalCtx) evalMulti(e ast.Expr, n int) []*val {
	switch x := unparen(e).(type) {
	case *ast.CallExpr:
		return ec.evalCall(x)
	case *ast.TypeAssertExpr:
		return []*val{ec.evalExpr(x.X), nil}
	case *ast.IndexExpr:
		ec.evalExpr(x.Index)
		return []*val{elemView(ec.evalExpr(x.X)), nil}
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return []*val{elemView(ec.evalExpr(x.X)), nil}
		}
	}
	out := make([]*val, n)
	if n > 0 {
		out[0] = ec.evalExpr(e)
	}
	return out
}

func fieldDisplay(v *types.Var) string {
	if v.Pkg() != nil {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}

// displayName is the short human name of a function: "pkg.Func" or
// "pkg.Type.Method".
func displayName(fn *types.Func) string {
	key := symbolKey(fn)
	if i := strings.LastIndex(key, "/"); i >= 0 {
		key = key[i+1:]
	}
	return key
}
