package flow

import (
	"fmt"

	"webssari/internal/ai"
	"webssari/internal/ir"
	"webssari/internal/lattice"
	"webssari/internal/php/ast"
	"webssari/internal/prelude"
)

// trExpr translates an IR expression into a safety-type expression,
// emitting hoisted commands (nested assignments, unfolded calls, sink
// assertions) for its side effects in evaluation order.
func (b *ubuilder) trExpr(e ir.Expr) ai.Expr {
	bottom := ai.Const{Type: b.lat.Bottom(), Lat: b.lat}
	switch e := e.(type) {
	case nil:
		return bottom

	case *ir.Lit, *ir.Str:
		// Literals and constants carry the safest type (t_n = ⊥).
		return bottom

	case *ir.Var:
		return ai.Var{Name: b.resolveVar(e.Name)}

	case *ir.VarVar:
		// A variable variable could read any variable; its type is
		// conservatively ⊤ (§: documented approximation).
		b.trExpr(e.Inner)
		b.warnf(e.Pos(), "variable variable read approximated as ⊤")
		return ai.Const{Type: b.lat.Top(), Lat: b.lat, Label: "$$"}

	case *ir.Index:
		if name, ok := globalsIndexIR(e); ok {
			return ai.Var{Name: name}
		}
		b.trExpr(e.Key)
		return b.trExpr(e.Arr)

	case *ir.Prop:
		// Object properties are folded into the object variable's type.
		return b.trExpr(e.Obj)

	case *ir.Interp:
		parts := make([]ai.Expr, 0, len(e.Parts))
		for _, part := range e.Parts {
			parts = append(parts, b.trExpr(part))
		}
		return b.joinOf(parts)

	case *ir.Array:
		parts := make([]ai.Expr, 0, len(e.Items))
		for _, it := range e.Items {
			if it.Key != nil {
				b.trExpr(it.Key)
			}
			parts = append(parts, b.trExpr(it.Val))
		}
		return b.joinOf(parts)

	case *ir.Cast:
		inner := b.trExpr(e.X)
		if e.Sanitizing() {
			// Numeric/boolean casts cannot carry string payloads: the
			// common "(int)$_GET['id']" idiom is a sanitizer.
			return ai.Const{Type: b.lat.Bottom(), Lat: b.lat, Label: "(" + e.To + ")"}
		}
		return inner

	case *ir.Unary:
		return b.trExpr(e.X)

	case *ir.Concat:
		l := b.trExpr(e.L)
		r := b.trExpr(e.R)
		return b.joinOf([]ai.Expr{l, r})

	case *ir.Bin:
		l := b.trExpr(e.L)
		r := b.trExpr(e.R)
		return b.joinOf([]ai.Expr{l, r})

	case *ir.Assign:
		return b.trAssign(e)

	case *ir.Ternary:
		b.trExpr(e.Cond)
		var parts []ai.Expr
		if e.Then != nil {
			parts = append(parts, b.trExpr(e.Then))
		} else {
			// Short form cond ?: else yields the condition's value.
			parts = append(parts, b.trExpr(e.Cond))
		}
		parts = append(parts, b.trExpr(e.Else))
		return b.joinOf(parts)

	case *ir.Call:
		return b.trCall(e)

	case *ir.MethodCall:
		return b.trMethodCall(e)

	case *ir.StaticCall:
		if fd, ok := b.lookupMethod(e.Class, e.Name); ok {
			args, argIRs := b.trArgs(e.Args)
			return b.inlineCall(fd, e.Class+"::"+e.Name, args, argIRs, nil, e)
		}
		return b.trNamedCall(e.Class+"::"+e.Name, e.Name, e.Args, e)

	case *ir.New:
		// Constructors are not unfolded; the object's type joins the
		// constructor arguments (data stored in the object stays visible).
		args, _ := b.trArgs(e.Args)
		return b.joinOf(args)

	case *ir.Include:
		return b.handleInclude(e)

	case *ir.Isset:
		// isset does not read values, only existence: boolean result.
		return bottom

	case *ir.Empty:
		return bottom

	case *ir.List:
		// Bare list() outside an assignment has no effect.
		return bottom

	case *ir.Exit:
		// exit/die in expression position (e.g. "... or die(...)"): the
		// argument is emitted to the client, so the sink assertion applies,
		// but execution only conditionally stops — conservatively treated
		// as continuing (over-approximation keeps later errors visible).
		b.trExitExpr(e)
		return bottom

	case *ir.Closure:
		// A closure value used without being bound to a variable ($arr[] =
		// function ..., array_map(function ..., $a), ...): the function
		// value itself carries no taint. Its body only matters when a bound
		// variable is later invoked (see trCall / closureBind).
		return ai.Const{Type: b.lat.Bottom(), Lat: b.lat, Label: "closure"}

	default:
		b.warnf(e.Pos(), "unhandled expression %s approximated as ⊥", legacyTypeName(e))
		return bottom
	}
}

// sanitizerType resolves a sanitizer call's result type, letting the
// active policy refine it by the constant arguments present at the call
// site (htmlspecialchars($x, ENT_QUOTES) is stronger than the bare
// call). Without a policy the prelude's declared type stands.
func (b *ubuilder) sanitizerType(san prelude.Sanitizer, argIRs []ir.Expr) lattice.Elem {
	if b.policy == nil {
		return san.Type
	}
	var consts []string
	for _, a := range argIRs {
		if lit, ok := a.(*ir.Lit); ok && lit.Kind == ir.LitConst {
			consts = append(consts, lit.Text)
		}
	}
	if t, ok := b.policy.SanitizerType(san.Name, consts); ok {
		return t
	}
	return san.Type
}

// joinOf folds expression parts with ⊔, treating the empty set as ⊥.
func (b *ubuilder) joinOf(parts []ai.Expr) ai.Expr {
	j := ai.NewJoin(parts...)
	if j == nil {
		return ai.Const{Type: b.lat.Bottom(), Lat: b.lat}
	}
	return j
}

// globalsIndexIR recognizes $GLOBALS['name'] and returns the global name.
func globalsIndexIR(e *ir.Index) (string, bool) {
	v, ok := e.Arr.(*ir.Var)
	if !ok || v.Name != "GLOBALS" {
		return "", false
	}
	key, ok := e.Key.(*ir.Str)
	if !ok {
		return "", false
	}
	return key.Value, true
}

// trExitExpr emits the sink assertion for exit/die arguments.
func (b *ubuilder) trExitExpr(e *ir.Exit) {
	if e.Arg == nil {
		return
	}
	arg := b.trExpr(e.Arg)
	if sink, ok := b.pre.SinkFor("die"); ok {
		b.emit(&ai.Assert{
			Fn:    sink.Name,
			Args:  []ai.Arg{{Expr: arg, ArgPos: 1, Pos: e.Arg.Pos(), End: e.Arg.End()}},
			Bound: sink.Bound,
			Site:  b.site(e),
		})
	}
}

// rootVar resolves the variable that ultimately receives a write through an
// lvalue expression ($a, $a['k'], $a['k'][0], $o->p, $GLOBALS['g']).
func (b *ubuilder) rootVar(e ir.Expr) (name string, exact bool, ok bool) {
	switch e := e.(type) {
	case *ir.Var:
		return b.resolveVar(e.Name), true, true
	case *ir.Index:
		if name, isGlobals := globalsIndexIR(e); isGlobals {
			return name, true, true
		}
		if e.Key != nil {
			b.trExpr(e.Key)
		}
		name, _, ok := b.rootVar(e.Arr)
		// Writing one element is a weak update of the whole array.
		return name, false, ok
	case *ir.Prop:
		name, _, ok := b.rootVar(e.Obj)
		return name, false, ok
	default:
		return "", false, false
	}
}

// pureRoot resolves an lvalue's root variable without evaluating index
// keys for side effects (used where the expression was already evaluated).
func (b *ubuilder) pureRoot(e ir.Expr) (string, bool) {
	switch e := e.(type) {
	case *ir.Var:
		return b.resolveVar(e.Name), true
	case *ir.Index:
		if name, ok := globalsIndexIR(e); ok {
			return name, true
		}
		return b.pureRoot(e.Arr)
	case *ir.Prop:
		return b.pureRoot(e.Obj)
	default:
		return "", false
	}
}

// srcRootNameIR returns the source-level (unprefixed) name of the variable
// an lvalue ultimately writes.
func srcRootNameIR(e ir.Expr) string {
	switch e := e.(type) {
	case *ir.Var:
		return e.Name
	case *ir.Index:
		if name, ok := globalsIndexIR(e); ok {
			return name
		}
		return srcRootNameIR(e.Arr)
	case *ir.Prop:
		return srcRootNameIR(e.Obj)
	default:
		return ""
	}
}

// trAssign lowers an assignment expression and returns the assigned
// value's type expression.
func (b *ubuilder) trAssign(e *ir.Assign) ai.Expr {
	// list($a, $b) = rhs distributes the right-hand side's type.
	if lst, ok := e.LHS.(*ir.List); ok {
		rhs := b.trExpr(e.RHS)
		for _, tgt := range lst.Targets {
			if tgt != nil {
				b.assignTo(tgt, rhs, e.RHS, e)
			}
		}
		return rhs
	}

	rhs := b.trExpr(e.RHS)
	if e.Op != "=" {
		// Compound assignment ($x .= e and friends) joins old and new.
		if name, _, ok := b.rootVar(e.LHS); ok {
			rhs = ai.NewJoin(ai.Var{Name: name}, rhs)
		}
	}
	b.assignTo(e.LHS, rhs, e.RHS, e)

	// $f = function (...) {...} binds the closure body to $f for later
	// direct invocation; emit() dropped any previous binding of the name.
	if cl, isClosure := e.RHS.(*ir.Closure); isClosure && e.Op == "=" {
		if v, isVar := e.LHS.(*ir.Var); isVar {
			b.closureBind[b.resolveVar(v.Name)] = cl.Fn
		}
	}
	return rhs
}

// assignTo emits the type assignment for a write of rhs through lvalue.
// rhsNode, when non-nil, is the source expression whose span a runtime
// guard can wrap to sanitize the assignment.
func (b *ubuilder) assignTo(lvalue ir.Expr, rhs ai.Expr, rhsNode ir.Expr, site ir.Node) {
	name, exact, ok := b.rootVar(lvalue)
	if !ok {
		if vv, isVV := lvalue.(*ir.VarVar); isVV {
			b.trExpr(vv.Inner)
			b.warnf(lvalue.Pos(), "write through variable variable ignored")
			return
		}
		b.warnf(lvalue.Pos(), "unsupported assignment target %s ignored", legacyTypeName(lvalue))
		return
	}
	if !exact {
		// Weak update: other elements/properties keep their taint.
		rhs = ai.NewJoin(ai.Var{Name: name}, rhs)
	}
	set := &ai.Set{Var: name, RHS: rhs, Site: b.site(site), SrcVar: srcRootNameIR(lvalue)}
	if rhsNode != nil {
		set.RHSPos = rhsNode.Pos()
		set.RHSEnd = rhsNode.End()
	} else {
		set.Synthetic = true
	}
	b.emit(set)
}

// trArgs translates call arguments, returning both the type expressions
// and the original IR nodes (needed for by-reference copy-back).
func (b *ubuilder) trArgs(args []ir.Expr) ([]ai.Expr, []ir.Expr) {
	out := make([]ai.Expr, len(args))
	for i, a := range args {
		out[i] = b.trExpr(a)
	}
	return out, args
}

// trCall lowers a function call.
func (b *ubuilder) trCall(e *ir.Call) ai.Expr {
	if e.Name == "" {
		// Variable function $f(...): unfold when $f is statically bound to
		// a closure, otherwise unresolvable.
		if v, isVar := e.Func.(*ir.Var); isVar {
			if fn, bound := b.closureBind[b.resolveVar(v.Name)]; bound {
				args, argIRs := b.trArgs(e.Args)
				return b.inlineCall(fn, fn.Name, args, argIRs, nil, e)
			}
		}
		if cl, isClosure := e.Func.(*ir.Closure); isClosure {
			// Immediately-invoked closure literal.
			args, argIRs := b.trArgs(e.Args)
			return b.inlineCall(cl.Fn, cl.Fn.Name, args, argIRs, nil, e)
		}
		b.trExpr(e.Func)
		args, _ := b.trArgs(e.Args)
		b.warnf(e.Pos(), "dynamic call target; result approximated as join of arguments")
		return b.joinOf(args)
	}
	if e.Name == "extract" {
		return b.handleExtract(e)
	}
	if fd, ok := b.funcs[e.Name]; ok {
		args, argIRs := b.trArgs(e.Args)
		return b.inlineCall(fd, e.Name, args, argIRs, nil, e)
	}
	return b.trNamedCall(e.Name, e.Name, e.Args, e)
}

// trNamedCall handles calls resolved only by name against the prelude:
// sanitizers, sources, sinks, and unknown builtins.
func (b *ubuilder) trNamedCall(display, name string, argIRs []ir.Expr, site ir.Node) ai.Expr {
	if san, ok := b.pre.SanitizerFor(name); ok {
		for _, a := range argIRs {
			b.trExpr(a)
		}
		return ai.Const{Type: b.sanitizerType(san, argIRs), Lat: b.lat, Label: san.Name}
	}
	if src, ok := b.pre.SourceFor(name); ok {
		for _, a := range argIRs {
			b.trExpr(a)
		}
		return ai.Const{Type: src.Type, Lat: b.lat, Label: src.Name}
	}
	if _, ok := b.pre.SinkFor(name); ok {
		b.emitSinkCall(name, argIRs, site)
		return ai.Const{Type: b.lat.Bottom(), Lat: b.lat}
	}
	// Unknown builtin: its result joins its arguments, the right default
	// for the string functions that dominate real code (trim, substr,
	// str_replace, sprintf, …) — taint flows through.
	args, _ := b.trArgs(argIRs)
	_ = display
	return b.joinOf(args)
}

// trMethodCall lowers $obj->name(args): unfold when the method body is
// statically resolvable, otherwise fall back to prelude/name resolution
// (so $db->query($sql) still hits the mysql_query-style sink if the
// prelude registers "query").
func (b *ubuilder) trMethodCall(e *ir.MethodCall) ai.Expr {
	objExpr := b.trExpr(e.Obj)
	if fd, ok := b.lookupMethod("", e.Name); ok {
		args, argIRs := b.trArgs(e.Args)
		thisRoot := ""
		if name, _, okRoot := b.rootVar(e.Obj); okRoot {
			thisRoot = name
		}
		result := b.inlineCall(fd, e.Name, args, argIRs, &methodReceiver{
			expr: objExpr, rootVar: thisRoot,
		}, e)
		return result
	}
	if _, isSink := b.pre.SinkFor(e.Name); isSink {
		b.emitSinkCall(e.Name, e.Args, e)
		return ai.Const{Type: b.lat.Bottom(), Lat: b.lat}
	}
	if san, ok := b.pre.SanitizerFor(e.Name); ok {
		b.trArgs(e.Args)
		return ai.Const{Type: b.sanitizerType(san, e.Args), Lat: b.lat, Label: san.Name}
	}
	if src, ok := b.pre.SourceFor(e.Name); ok {
		b.trArgs(e.Args)
		return ai.Const{Type: src.Type, Lat: b.lat, Label: src.Name}
	}
	args, _ := b.trArgs(e.Args)
	return b.joinOf(append(args, objExpr))
}

// methodReceiver is the object a method is called on: its AI expression
// and, when it is a plain variable, the root that $this writes flow to.
type methodReceiver struct {
	expr    ai.Expr
	rootVar string
}

// inlineCall unfolds a user-defined function, method, or closure body at
// the call site, implementing the filter's requirement that F(p) "unfolds
// function calls". Locals are α-renamed with a per-instance prefix;
// by-reference parameters (and by-reference closure captures) copy back
// into the caller's variables.
func (b *ubuilder) inlineCall(
	fd *ir.Func,
	name string,
	args []ai.Expr,
	argIRs []ir.Expr,
	recv *methodReceiver,
	site ir.Node,
) ai.Expr {
	key := ast.LowerName(name)
	if b.inlineDepth[key] >= b.opts.MaxInlineDepth {
		b.warnf(site.Pos(), "recursion cutoff unfolding %s; result approximated as join of arguments", name)
		return b.joinOf(args)
	}
	b.inlineDepth[key]++
	defer func() { b.inlineDepth[key]-- }()

	b.instID++
	prefix := fmt.Sprintf("%s#%d$", key, b.instID)
	inner := &scope{
		prefix:  prefix,
		globals: make(map[string]bool),
		retVar:  prefix + "return",
	}

	bottom := ai.Const{Type: b.lat.Bottom(), Lat: b.lat}

	// Bind parameters in the caller's scope (defaults are evaluated in the
	// callee, but they are constant in practice).
	type refParam struct {
		local  string
		caller string
	}
	var refs []refParam
	paramVals := make([]ai.Expr, len(fd.Params))
	for i, p := range fd.Params {
		switch {
		case i < len(args):
			paramVals[i] = args[i]
		case p.Default != nil:
			paramVals[i] = b.trExpr(p.Default)
		default:
			paramVals[i] = bottom
		}
		if p.ByRef && i < len(argIRs) {
			if callerVar, _, ok := b.rootVar(argIRs[i]); ok {
				refs = append(refs, refParam{local: prefix + p.Name, caller: callerVar})
			}
		}
	}

	// Closure captures resolve against the defining (caller) scope before
	// the scope switch; by-value captures copy in, by-reference captures
	// also copy back.
	type useBind struct {
		local, outer string
		byRef        bool
	}
	var uses []useBind
	for _, u := range fd.Uses {
		uses = append(uses, useBind{
			local: prefix + u.Name, outer: b.resolveVar(u.Name), byRef: u.ByRef,
		})
	}

	outer := b.scope
	b.scope = inner
	b.emit(&ai.Set{Var: inner.retVar, RHS: bottom, Site: b.site(site), Synthetic: true})
	for i, p := range fd.Params {
		set := &ai.Set{Var: prefix + p.Name, RHS: paramVals[i], Site: b.site(site), Synthetic: true}
		if i < len(argIRs) {
			// The argument expression is a real patch point: wrapping it
			// sanitizes the parameter at the call site.
			set.SrcVar = srcRootNameIR(argIRs[i])
			set.RHSPos = argIRs[i].Pos()
			set.RHSEnd = argIRs[i].End()
			set.Synthetic = false
		}
		b.emit(set)
	}
	if recv != nil {
		b.emit(&ai.Set{Var: prefix + "this", RHS: recv.expr, Site: b.site(site), Synthetic: true})
	}
	for _, u := range uses {
		b.emit(&ai.Set{Var: u.local, RHS: ai.Var{Name: u.outer}, Site: b.site(site), Synthetic: true})
	}
	for _, st := range fd.Body {
		b.buildInstr(st)
	}
	b.scope = outer

	// Copy-back for by-reference parameters, by-reference captures, and the
	// method receiver (weak updates: the callee may or may not have written).
	for _, r := range refs {
		b.emit(&ai.Set{
			Var:       r.caller,
			RHS:       ai.NewJoin(ai.Var{Name: r.caller}, ai.Var{Name: r.local}),
			Site:      b.site(site),
			Synthetic: true,
		})
	}
	for _, u := range uses {
		if !u.byRef {
			continue
		}
		b.emit(&ai.Set{
			Var:       u.outer,
			RHS:       ai.NewJoin(ai.Var{Name: u.outer}, ai.Var{Name: u.local}),
			Site:      b.site(site),
			Synthetic: true,
		})
	}
	if recv != nil && recv.rootVar != "" {
		b.emit(&ai.Set{
			Var:       recv.rootVar,
			RHS:       ai.NewJoin(ai.Var{Name: recv.rootVar}, ai.Var{Name: prefix + "this"}),
			Site:      b.site(site),
			Synthetic: true,
		})
	}
	return ai.Var{Name: inner.retVar}
}

// handleExtract models PHP's extract($arr), which creates one variable per
// array key. The statically unknowable key set is over-approximated by the
// unit's read-but-never-assigned variable names: exactly the variables
// whose only possible origin is an extract (or similar) call. Each receives
// the array's type — reproducing the paper's PHP Support Tickets example,
// where extract($row) hands tainted database fields to an echo.
func (b *ubuilder) handleExtract(e *ir.Call) ai.Expr {
	bottom := ai.Const{Type: b.lat.Bottom(), Lat: b.lat}
	if len(e.Args) == 0 {
		return bottom
	}
	subj := b.trExpr(e.Args[0])
	for _, a := range e.Args[1:] {
		b.trExpr(a)
	}
	for _, name := range b.extractTargets {
		b.emit(&ai.Set{
			Var:    b.resolveVar(name),
			RHS:    subj,
			Site:   b.site(e),
			SrcVar: name,
			RHSPos: e.Args[0].Pos(),
			RHSEnd: e.Args[0].End(),
		})
	}
	return bottom
}
