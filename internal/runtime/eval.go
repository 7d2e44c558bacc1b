package runtime

import (
	"fmt"
	"path"
	"strings"

	"webssari/internal/php/ast"
	"webssari/internal/php/parser"
	"webssari/internal/php/token"
)

func (in *Interp) eval(e ast.Expr) (*Value, error) {
	if e == nil {
		return Null(), nil
	}
	if err := in.tick(e.Pos()); err != nil {
		return nil, err
	}
	switch e := e.(type) {
	case *ast.IntLit:
		return Num(float64(e.Value)), nil
	case *ast.FloatLit:
		return Num(e.Value), nil
	case *ast.StringLit:
		return Clean(e.Value), nil
	case *ast.BoolLit:
		return BoolVal(e.Value), nil
	case *ast.NullLit:
		return Null(), nil

	case *ast.Interp:
		var b strings.Builder
		taint := false
		for _, part := range e.Parts {
			v, err := in.eval(part)
			if err != nil {
				return nil, err
			}
			b.WriteString(v.String())
			taint = taint || v.AnyTaint()
		}
		return &Value{Kind: KString, Str: b.String(), Taint: taint}, nil

	case *ast.ArrayLit:
		arr := Array()
		for _, it := range e.Items {
			v, err := in.eval(it.Val)
			if err != nil {
				return nil, err
			}
			if it.Key != nil {
				k, err := in.eval(it.Key)
				if err != nil {
					return nil, err
				}
				arr.Set(k.String(), v)
			} else {
				arr.Append(v)
			}
		}
		return arr, nil

	case *ast.ConstFetch:
		// Unknown constants evaluate to their own name, as old PHP did.
		switch strings.ToLower(e.Name) {
		case "php_eol":
			return Clean("\n"), nil
		default:
			return Clean(e.Name), nil
		}

	case *ast.Var:
		return in.readVar(e.Name), nil

	case *ast.VarVar:
		inner, err := in.eval(e.Inner)
		if err != nil {
			return nil, err
		}
		return in.readVar(inner.String()), nil

	case *ast.Index:
		base, err := in.eval(e.Arr)
		if err != nil {
			return nil, err
		}
		if e.Key == nil {
			return Null(), nil
		}
		key, err := in.eval(e.Key)
		if err != nil {
			return nil, err
		}
		return base.Get(key.String()), nil

	case *ast.Prop:
		base, err := in.eval(e.Obj)
		if err != nil {
			return nil, err
		}
		return base.Get("->" + e.Name), nil

	case *ast.Cast:
		v, err := in.eval(e.X)
		if err != nil {
			return nil, err
		}
		return castValue(e.To, v), nil

	case *ast.Unary:
		return in.evalUnary(e)

	case *ast.Binary:
		return in.evalBinary(e)

	case *ast.Assign:
		return in.evalAssign(e)

	case *ast.Ternary:
		c, err := in.eval(e.Cond)
		if err != nil {
			return nil, err
		}
		if c.Truthy() {
			if e.Then == nil {
				return c, nil
			}
			return in.eval(e.Then)
		}
		return in.eval(e.Else)

	case *ast.Call:
		return in.evalCall(e)

	case *ast.MethodCall:
		// Methods resolve by unique name (mirrors the verifier's model);
		// the receiver is passed as $this.
		if fd, ok := in.funcs[ast.LowerName(e.Name)]; ok {
			recv, err := in.eval(e.Obj)
			if err != nil {
				return nil, err
			}
			return in.callUser(fd, e.Args, map[string]*Value{"this": recv}, e.Pos())
		}
		return in.builtin(ast.LowerName(e.Name), e.Args, e.Pos())

	case *ast.StaticCall:
		if fd, ok := in.funcs[ast.LowerName(e.Name)]; ok {
			return in.callUser(fd, e.Args, nil, e.Pos())
		}
		return in.builtin(ast.LowerName(e.Name), e.Args, e.Pos())

	case *ast.New:
		obj := Array()
		for _, a := range e.Args {
			if _, err := in.eval(a); err != nil {
				return nil, err
			}
		}
		return obj, nil

	case *ast.IncludeExpr:
		return in.evalInclude(e)

	case *ast.IssetExpr:
		for _, a := range e.Args {
			v, err := in.evalQuiet(a)
			if err != nil {
				return nil, err
			}
			if v == nil || v.Kind == KNull {
				return BoolVal(false), nil
			}
		}
		return BoolVal(true), nil

	case *ast.EmptyExpr:
		v, err := in.evalQuiet(e.Arg)
		if err != nil {
			return nil, err
		}
		return BoolVal(v == nil || !v.Truthy()), nil

	case *ast.ListExpr:
		return Null(), nil

	case *ast.Closure:
		c := &closure{
			decl: &ast.FunctionDecl{Span: e.Span, Name: "{closure}", Params: e.Params, Body: e.Body},
			uses: e.Uses,
			vals: make(map[string]*Value),
			home: in.scope,
		}
		for _, u := range e.Uses {
			c.vals[u.Name] = in.readVar(u.Name).Copy()
		}
		return &Value{Kind: KClosure, fn: c}, nil

	case *ast.ExitExpr:
		if e.Arg != nil {
			v, err := in.eval(e.Arg)
			if err != nil {
				return nil, err
			}
			if v.Kind == KString {
				in.emit("echo", "exit", v, e.Pos())
			}
		}
		panic(haltSignal{})

	default:
		return nil, fmt.Errorf("runtime: unsupported expression %T at %s", e, e.Pos())
	}
}

// castValue applies a PHP type cast. Numeric and boolean casts drop taint
// (the result cannot carry a string payload); string/array casts keep it.
func castValue(to string, v *Value) *Value {
	switch to {
	case "int", "integer":
		return Num(float64(int64(v.Number())))
	case "float", "double", "real":
		return Num(v.Number())
	case "bool", "boolean":
		return BoolVal(v.Truthy())
	case "string":
		out := Clean(v.String())
		out.Taint = v.AnyTaint()
		return out
	case "array":
		if v.Kind == KArray {
			return v
		}
		a := Array()
		a.Append(v)
		return a
	case "unset":
		return Null()
	default:
		return v
	}
}

// evalQuiet evaluates for isset/empty, tolerating failures as null.
func (in *Interp) evalQuiet(e ast.Expr) (*Value, error) {
	v, err := in.eval(e)
	if err != nil {
		return Null(), nil
	}
	return v, nil
}

func (in *Interp) readVar(name string) *Value {
	if in.scope != nil {
		if in.globals != nil && (in.globals[name] || isSuperglobal(name)) {
			if v, ok := in.Globals[name]; ok {
				return v
			}
			return Null()
		}
		if v, ok := in.scope[name]; ok {
			return v
		}
	}
	return Null()
}

func (in *Interp) setVar(name string, v *Value) {
	if in.globals != nil && (in.globals[name] || isSuperglobal(name)) {
		in.Globals[name] = v
		return
	}
	in.scope[name] = v
}

func isSuperglobal(name string) bool {
	switch name {
	case "_GET", "_POST", "_COOKIE", "_REQUEST", "_SERVER", "_SESSION",
		"_FILES", "_ENV", "GLOBALS":
		return true
	}
	return false
}

func (in *Interp) evalUnary(e *ast.Unary) (*Value, error) {
	switch e.Op {
	case token.Inc, token.Dec:
		old, err := in.eval(e.X)
		if err != nil {
			return nil, err
		}
		delta := 1.0
		if e.Op == token.Dec {
			delta = -1
		}
		updated := Num(old.Number() + delta)
		updated.Taint = old.Taint
		if err := in.assign(e.X, updated); err != nil {
			return nil, err
		}
		if e.Postfix {
			return old, nil
		}
		return updated, nil
	}
	v, err := in.eval(e.X)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case token.Not:
		return BoolVal(!v.Truthy()), nil
	case token.Minus:
		out := Num(-v.Number())
		out.Taint = v.Taint
		return out, nil
	case token.Plus:
		out := Num(v.Number())
		out.Taint = v.Taint
		return out, nil
	case token.Tilde:
		out := Num(float64(^int64(v.Number())))
		out.Taint = v.Taint
		return out, nil
	case token.At:
		return v, nil
	default:
		return v, nil
	}
}

func (in *Interp) evalBinary(e *ast.Binary) (*Value, error) {
	// Short-circuit logical operators.
	switch e.Op {
	case token.AndAnd, token.KwAnd:
		l, err := in.eval(e.L)
		if err != nil {
			return nil, err
		}
		if !l.Truthy() {
			return BoolVal(false), nil
		}
		r, err := in.eval(e.R)
		if err != nil {
			return nil, err
		}
		return BoolVal(r.Truthy()), nil
	case token.OrOr, token.KwOr:
		l, err := in.eval(e.L)
		if err != nil {
			return nil, err
		}
		if l.Truthy() {
			return BoolVal(true), nil
		}
		r, err := in.eval(e.R)
		if err != nil {
			return nil, err
		}
		return BoolVal(r.Truthy()), nil
	}

	l, err := in.eval(e.L)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(e.R)
	if err != nil {
		return nil, err
	}
	taint := l.AnyTaint() || r.AnyTaint()

	switch e.Op {
	case token.Dot:
		return &Value{Kind: KString, Str: l.String() + r.String(), Taint: taint}, nil
	case token.Plus:
		out := Num(l.Number() + r.Number())
		out.Taint = taint
		return out, nil
	case token.Minus:
		out := Num(l.Number() - r.Number())
		out.Taint = taint
		return out, nil
	case token.Star:
		out := Num(l.Number() * r.Number())
		out.Taint = taint
		return out, nil
	case token.Slash:
		d := r.Number()
		if d == 0 {
			return BoolVal(false), nil
		}
		out := Num(l.Number() / d)
		out.Taint = taint
		return out, nil
	case token.Percent:
		d := int64(r.Number())
		if d == 0 {
			return BoolVal(false), nil
		}
		out := Num(float64(int64(l.Number()) % d))
		out.Taint = taint
		return out, nil
	case token.Eq:
		return BoolVal(looseEq(l, r)), nil
	case token.NotEq:
		return BoolVal(!looseEq(l, r)), nil
	case token.Identical:
		return BoolVal(l.Kind == r.Kind && looseEq(l, r)), nil
	case token.NotIdent:
		return BoolVal(!(l.Kind == r.Kind && looseEq(l, r))), nil
	case token.Lt:
		return BoolVal(compare(l, r) < 0), nil
	case token.Gt:
		return BoolVal(compare(l, r) > 0), nil
	case token.LtEq:
		return BoolVal(compare(l, r) <= 0), nil
	case token.GtEq:
		return BoolVal(compare(l, r) >= 0), nil
	case token.KwXor:
		return BoolVal(l.Truthy() != r.Truthy()), nil
	case token.Amp:
		out := Num(float64(int64(l.Number()) & int64(r.Number())))
		out.Taint = taint
		return out, nil
	case token.Pipe:
		out := Num(float64(int64(l.Number()) | int64(r.Number())))
		out.Taint = taint
		return out, nil
	case token.Caret:
		out := Num(float64(int64(l.Number()) ^ int64(r.Number())))
		out.Taint = taint
		return out, nil
	case token.Shl:
		out := Num(float64(int64(l.Number()) << uint(r.Number())))
		out.Taint = taint
		return out, nil
	case token.Shr:
		out := Num(float64(int64(l.Number()) >> uint(r.Number())))
		out.Taint = taint
		return out, nil
	default:
		return nil, fmt.Errorf("runtime: unsupported operator %v at %s", e.Op, e.Pos())
	}
}

func looseEq(a, b *Value) bool {
	if a.Kind == KNum || b.Kind == KNum || a.Kind == KBool || b.Kind == KBool {
		return a.Number() == b.Number()
	}
	return a.String() == b.String()
}

func compare(a, b *Value) int {
	if a.Kind == KString && b.Kind == KString {
		return strings.Compare(a.Str, b.Str)
	}
	switch {
	case a.Number() < b.Number():
		return -1
	case a.Number() > b.Number():
		return 1
	default:
		return 0
	}
}

func (in *Interp) evalAssign(e *ast.Assign) (*Value, error) {
	rhs, err := in.eval(e.RHS)
	if err != nil {
		return nil, err
	}
	if lst, ok := e.LHS.(*ast.ListExpr); ok {
		for i, tgt := range lst.Targets {
			if tgt == nil {
				continue
			}
			if err := in.assign(tgt, rhs.Get(fmt.Sprint(i)).Copy()); err != nil {
				return nil, err
			}
		}
		return rhs, nil
	}
	if e.Op != token.Assign {
		old, err := in.eval(e.LHS)
		if err != nil {
			return nil, err
		}
		combined, err := in.compound(e.Op, old, rhs, e.Pos())
		if err != nil {
			return nil, err
		}
		rhs = combined
	} else {
		rhs = rhs.Copy()
	}
	if err := in.assign(e.LHS, rhs); err != nil {
		return nil, err
	}
	return rhs, nil
}

func (in *Interp) compound(op token.Kind, old, rhs *Value, pos token.Pos) (*Value, error) {
	taint := old.AnyTaint() || rhs.AnyTaint()
	switch op {
	case token.ConcatAssign:
		return &Value{Kind: KString, Str: old.String() + rhs.String(), Taint: taint}, nil
	case token.PlusAssign:
		out := Num(old.Number() + rhs.Number())
		out.Taint = taint
		return out, nil
	case token.MinusAssign:
		out := Num(old.Number() - rhs.Number())
		out.Taint = taint
		return out, nil
	case token.StarAssign:
		out := Num(old.Number() * rhs.Number())
		out.Taint = taint
		return out, nil
	case token.SlashAssign:
		d := rhs.Number()
		if d == 0 {
			return BoolVal(false), nil
		}
		out := Num(old.Number() / d)
		out.Taint = taint
		return out, nil
	case token.PercentAssign:
		d := int64(rhs.Number())
		if d == 0 {
			return BoolVal(false), nil
		}
		out := Num(float64(int64(old.Number()) % d))
		out.Taint = taint
		return out, nil
	default:
		return nil, fmt.Errorf("runtime: unsupported compound assignment at %s", pos)
	}
}

// assign writes a value through an lvalue expression.
func (in *Interp) assign(lvalue ast.Expr, v *Value) error {
	switch lv := lvalue.(type) {
	case *ast.Var:
		in.setVar(lv.Name, v)
		return nil
	case *ast.VarVar:
		inner, err := in.eval(lv.Inner)
		if err != nil {
			return err
		}
		in.setVar(inner.String(), v)
		return nil
	case *ast.Index:
		base, err := in.lvalueBase(lv.Arr)
		if err != nil {
			return err
		}
		if lv.Key == nil {
			base.Append(v)
			return nil
		}
		k, err := in.eval(lv.Key)
		if err != nil {
			return err
		}
		base.Set(k.String(), v)
		return nil
	case *ast.Prop:
		base, err := in.lvalueBase(lv.Obj)
		if err != nil {
			return err
		}
		base.Set("->"+lv.Name, v)
		return nil
	default:
		return fmt.Errorf("runtime: unsupported assignment target %T at %s", lvalue, lvalue.Pos())
	}
}

// lvalueBase resolves the container an element write goes into,
// auto-vivifying arrays like PHP does.
func (in *Interp) lvalueBase(e ast.Expr) (*Value, error) {
	switch e := e.(type) {
	case *ast.Var:
		cur := in.readVar(e.Name)
		if cur.Kind != KArray {
			cur = Array()
			in.setVar(e.Name, cur)
		}
		return cur, nil
	case *ast.Index:
		outer, err := in.lvalueBase(e.Arr)
		if err != nil {
			return nil, err
		}
		var key string
		if e.Key != nil {
			k, err := in.eval(e.Key)
			if err != nil {
				return nil, err
			}
			key = k.String()
		}
		inner := outer.Get(key)
		if inner.Kind != KArray {
			inner = Array()
			outer.Set(key, inner)
		}
		return inner, nil
	case *ast.Prop:
		outer, err := in.lvalueBase(e.Obj)
		if err != nil {
			return nil, err
		}
		inner := outer.Get("->" + e.Name)
		if inner.Kind != KArray {
			inner = Array()
			outer.Set("->"+e.Name, inner)
		}
		return inner, nil
	default:
		return nil, fmt.Errorf("runtime: unsupported lvalue base %T at %s", e, e.Pos())
	}
}

// evalInclude runs an included file. A relative path is tried against
// the including file's directory first, then as given — the order the
// verifier's include resolution uses, so both name the file alike.
func (in *Interp) evalInclude(e *ast.IncludeExpr) (*Value, error) {
	pathV, err := in.eval(e.Path)
	if err != nil {
		return nil, err
	}
	in.emit("include", e.Kind.String(), pathV, e.Pos())
	if in.Loader == nil {
		return BoolVal(false), nil
	}
	lit := pathV.String()
	candidates := []string{lit}
	if dir := path.Dir(in.file); !path.IsAbs(lit) && dir != "." {
		candidates = []string{path.Join(dir, lit), lit}
	}
	for _, cand := range candidates {
		src, err := in.Loader(cand)
		if err != nil {
			continue
		}
		res := parser.Parse(cand, src)
		if len(res.Errs) > 0 {
			return nil, fmt.Errorf("runtime: include %s: %w", cand, res.Errs[0])
		}
		if in.depth >= maxCallDepth {
			return nil, fmt.Errorf("%w including %s at %s", ErrCallDepth, cand, e.Pos())
		}
		in.collectFuncs(res.File.Stmts)
		saved := in.file
		in.file, in.depth = cand, in.depth+1
		_, err = in.stmts(res.File.Stmts)
		in.file, in.depth = saved, in.depth-1
		return BoolVal(err == nil), err
	}
	return BoolVal(false), nil
}
