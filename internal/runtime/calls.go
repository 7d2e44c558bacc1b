package runtime

import (
	"fmt"
	"net/url"
	"path"
	"strings"

	"webssari/internal/php/ast"
	"webssari/internal/php/token"
)

// maxCallDepth bounds recursion.
const maxCallDepth = 128

func (in *Interp) evalCall(e *ast.Call) (*Value, error) {
	name := e.FuncName()
	if name == "" {
		// Variable function: resolve by value.
		fv, err := in.eval(e.Func)
		if err != nil {
			return nil, err
		}
		if fv.Kind == KClosure {
			return in.callClosure(fv.fn, e.Args, e.Pos())
		}
		name = ast.LowerName(fv.String())
	}
	if fd, ok := in.funcs[name]; ok {
		return in.callUser(fd, e.Args, nil, e.Pos())
	}
	return in.builtin(name, e.Args, e.Pos())
}

// closure is an anonymous function value: its body as a declaration,
// its by-value captures as snapshotted at creation, and the defining
// scope, which by-reference captures read from and write back to.
type closure struct {
	decl *ast.FunctionDecl
	uses []ast.ClosureUse
	vals map[string]*Value
	home map[string]*Value
}

func (in *Interp) callClosure(c *closure, args []ast.Expr, pos token.Pos) (*Value, error) {
	scope := make(map[string]*Value, len(c.uses))
	for _, u := range c.uses {
		v := c.vals[u.Name]
		if cur, ok := c.home[u.Name]; ok && u.ByRef {
			v = cur
		}
		scope[u.Name] = v.Copy()
	}
	ret, err := in.callUser(c.decl, args, scope, pos)
	if err != nil {
		return nil, err
	}
	for _, u := range c.uses {
		if v, ok := scope[u.Name]; ok && u.ByRef {
			c.home[u.Name] = v
		}
	}
	return ret, nil
}

// callUser invokes a user-defined function in scope: a fresh variable
// scope, possibly pre-bound ($this, closure captures), that holds the
// function's locals when it returns.
func (in *Interp) callUser(fd *ast.FunctionDecl, args []ast.Expr, scope map[string]*Value, pos token.Pos) (*Value, error) {
	if in.depth >= maxCallDepth {
		return nil, fmt.Errorf("%w at %s", ErrCallDepth, pos)
	}
	// Evaluate arguments in the caller's scope.
	vals := make([]*Value, len(fd.Params))
	var refTargets []ast.Expr
	var refIdx []int
	for i, p := range fd.Params {
		switch {
		case i < len(args):
			v, err := in.eval(args[i])
			if err != nil {
				return nil, err
			}
			if p.ByRef {
				refTargets = append(refTargets, args[i])
				refIdx = append(refIdx, i)
				vals[i] = v
			} else {
				vals[i] = v.Copy()
			}
		case p.Default != nil:
			v, err := in.eval(p.Default)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		default:
			vals[i] = Null()
		}
	}

	savedScope, savedGlobals := in.scope, in.globals
	if scope == nil {
		scope = make(map[string]*Value, len(fd.Params))
	}
	in.scope = scope
	in.globals = make(map[string]bool)
	in.depth++
	for i, p := range fd.Params {
		in.scope[p.Name] = vals[i]
	}
	ctl, err := in.stmts(fd.Body)
	localScope := in.scope
	in.depth--
	in.scope, in.globals = savedScope, savedGlobals
	if err != nil {
		return nil, err
	}

	// Copy back by-reference parameters.
	for k, i := range refIdx {
		if v, ok := localScope[fd.Params[i].Name]; ok {
			if err := in.assign(refTargets[k], v); err != nil {
				return nil, err
			}
		}
	}
	if ctl.kind == ctlReturn {
		return ctl.val, nil
	}
	return Null(), nil
}

// builtin dispatches the PHP standard-library subset.
func (in *Interp) builtin(name string, argASTs []ast.Expr, pos token.Pos) (*Value, error) {
	args := make([]*Value, len(argASTs))
	for i, a := range argASTs {
		v, err := in.eval(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	arg := func(i int) *Value {
		if i < len(args) {
			return args[i]
		}
		return Null()
	}

	switch name {
	// ------------------------------------------------ sanitizers (clear taint)
	case "htmlspecialchars", "htmlentities":
		return Clean(htmlEscape(arg(0).String())), nil
	case "websafe":
		// The default runtime guard inserted by the instrumentor: escapes
		// and untaints, recursing into arrays.
		return websafe(arg(0)), nil
	case "websafe_html", "websafe_attr", "websafe_js", "json_encode":
		// The xss-context policy's per-context guards and JSON encoding.
		// Taint is one bit here, so each clears it; which output context
		// each is adequate for is the static analysis' business.
		return Clean(htmlEscape(arg(0).String())), nil
	case "websafe_url":
		// The ssrf policy's allowlist guard: only allowlisted hosts pass,
		// rebuilt from constants; anything else becomes an empty URL.
		if u, err := url.Parse(arg(0).String()); err == nil && allowedHosts[u.Hostname()] {
			return Clean("https://" + u.Hostname() + "/"), nil
		}
		return Clean(""), nil
	case "basename":
		// A bare file name cannot name a remote host: the ssrf policy
		// declares basename a sanitizer, and so does the interpreter.
		return Clean(path.Base(arg(0).String())), nil
	case "addslashes", "mysql_escape_string", "mysql_real_escape_string",
		"pg_escape_string", "sqlite_escape_string":
		return Clean(addSlashes(arg(0).String())), nil
	case "strip_tags":
		return Clean(stripTags(arg(0).String())), nil
	case "escapeshellarg":
		return Clean("'" + strings.ReplaceAll(arg(0).String(), "'", `'\''`) + "'"), nil
	case "escapeshellcmd":
		return Clean(arg(0).String()), nil
	case "intval":
		return Num(float64(int64(arg(0).Number()))), nil
	case "floatval", "doubleval":
		return Num(arg(0).Number()), nil
	case "urlencode", "rawurlencode":
		return Clean(url.QueryEscape(arg(0).String())), nil
	case "md5", "sha1", "crc32", "base64_encode", "bin2hex":
		// Hashes modeled as identity-with-marker: value content is not
		// security-relevant, only the cleared taint is.
		return Clean(name + "(" + arg(0).String() + ")"), nil

	// ------------------------------------------------- sinks (record events)
	case "print":
		in.emit("echo", name, arg(0), pos)
		return Num(1), nil
	case "printf":
		in.emit("echo", name, joinArgs(args), pos)
		return Null(), nil
	case "print_r":
		in.emit("echo", name, arg(0), pos)
		return BoolVal(true), nil
	case "mysql_query", "mysql_db_query", "mysql_unbuffered_query",
		"pg_query", "pg_exec", "sqlite_query", "dosql":
		q := arg(0)
		if name == "mysql_db_query" {
			q = arg(1)
		}
		in.emit("sql", name, q, pos)
		in.DB.Queries = append(in.DB.Queries, q.String())
		res := &Value{Kind: KResource, Res: &Result{Rows: in.DB.Rows}}
		return res, nil
	case "exec", "system", "passthru", "shell_exec", "popen":
		in.emit("exec", name, arg(0), pos)
		return Clean(""), nil
	case "eval":
		in.emit("eval", name, arg(0), pos)
		return Null(), nil
	case "header", "mail":
		in.emit(name, name, joinArgs(args), pos)
		return Null(), nil
	case "curl_init", "curl_setopt", "fopen", "readfile", "get_headers", "fsockopen":
		// Outbound requests: the URL (or host) is the first argument, the
		// option value for curl_setopt. The handle returned is inert.
		target := arg(0)
		if name == "curl_setopt" {
			target = arg(2)
		}
		in.emit("request", name, target, pos)
		return &Value{Kind: KResource, Res: &Result{}}, nil

	// ------------------------------------------------ sources / database reads
	case "mysql_fetch_array", "mysql_fetch_assoc", "mysql_fetch_row",
		"mysql_fetch_object", "pg_fetch_array", "pg_fetch_row":
		r := arg(0)
		if r.Kind != KResource || r.Res == nil || r.Res.next >= len(r.Res.Rows) {
			return BoolVal(false), nil
		}
		row := r.Res.Rows[r.Res.next]
		r.Res.next++
		return row.Copy(), nil
	case "mysql_result":
		r := arg(0)
		if r.Kind == KResource && r.Res != nil && len(r.Res.Rows) > 0 {
			row := r.Res.Rows[0]
			keys := sortedKeys(row)
			if len(keys) > 0 {
				return row.Get(keys[0]).Copy(), nil
			}
		}
		return BoolVal(false), nil
	case "getenv":
		return Tainted("ENV:" + arg(0).String()), nil
	case "file_get_contents", "fgets", "fread", "file":
		if name == "file_get_contents" {
			in.emit("request", name, arg(0), pos)
		}
		return Tainted("FILE:" + arg(0).String()), nil

	// ------------------------------------------------------------- utilities
	case "extract":
		a := arg(0)
		if a.Kind == KArray {
			for _, k := range sortedKeys(a) {
				in.setVar(k, a.Elems[k].Copy())
			}
		}
		return Num(float64(len(args))), nil
	case "count", "sizeof":
		if arg(0).Kind == KArray {
			return Num(float64(len(arg(0).Elems))), nil
		}
		return Num(1), nil
	case "strlen":
		return Num(float64(len(arg(0).String()))), nil
	case "trim":
		return passTaint(arg(0), strings.TrimSpace(arg(0).String())), nil
	case "ltrim":
		return passTaint(arg(0), strings.TrimLeft(arg(0).String(), " \t\n\r")), nil
	case "rtrim", "chop":
		return passTaint(arg(0), strings.TrimRight(arg(0).String(), " \t\n\r")), nil
	case "strtolower":
		return passTaint(arg(0), strings.ToLower(arg(0).String())), nil
	case "strtoupper":
		return passTaint(arg(0), strings.ToUpper(arg(0).String())), nil
	case "substr":
		s := arg(0).String()
		start := int(arg(1).Number())
		if start < 0 {
			start += len(s)
		}
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		end := len(s)
		if len(args) > 2 {
			n := int(arg(2).Number())
			if n >= 0 && start+n < end {
				end = start + n
			}
		}
		return passTaint(arg(0), s[start:end]), nil
	case "str_replace":
		out := strings.ReplaceAll(arg(2).String(), arg(0).String(), arg(1).String())
		v := Clean(out)
		v.Taint = arg(1).AnyTaint() || arg(2).AnyTaint()
		return v, nil
	case "sprintf":
		v := joinArgs(args)
		return v, nil
	case "implode", "join":
		sep, a := arg(0), arg(1)
		if a.Kind != KArray && sep.Kind == KArray {
			sep, a = a, sep
		}
		var parts []string
		taint := false
		if a.Kind == KArray {
			for _, k := range sortedKeys(a) {
				parts = append(parts, a.Elems[k].String())
				taint = taint || a.Elems[k].AnyTaint()
			}
		}
		return &Value{Kind: KString, Str: strings.Join(parts, sep.String()), Taint: taint}, nil
	case "explode":
		parts := strings.Split(arg(1).String(), arg(0).String())
		out := Array()
		for _, p := range parts {
			v := Clean(p)
			v.Taint = arg(1).AnyTaint()
			out.Append(v)
		}
		return out, nil
	case "is_array":
		return BoolVal(arg(0).Kind == KArray), nil
	case "is_numeric":
		s := strings.TrimSpace(arg(0).String())
		return BoolVal(s != "" && fmt.Sprintf("%g", arg(0).Number()) != "0" || s == "0"), nil
	case "function_exists":
		_, ok := in.funcs[ast.LowerName(arg(0).String())]
		return BoolVal(ok || isKnownBuiltin(ast.LowerName(arg(0).String()))), nil
	case "define", "error_reporting", "ini_set", "session_start",
		"mysql_connect", "mysql_select_db", "mysql_close", "srand",
		"set_magic_quotes_runtime", "ob_start", "ob_end_flush":
		return BoolVal(true), nil
	case "rand", "mt_rand", "time":
		// Deterministic stand-ins keep test runs reproducible.
		return Num(4), nil
	case "gettype":
		return Clean(typeName(arg(0))), nil
	default:
		// Unknown builtin: join argument taints into an empty result, the
		// same conservative default the verifier's filter uses.
		taint := false
		for _, a := range args {
			taint = taint || a.AnyTaint()
		}
		return &Value{Kind: KString, Str: "", Taint: taint}, nil
	}
}

// allowedHosts is websafe_url's host allowlist.
var allowedHosts = map[string]bool{"example.com": true}

func isKnownBuiltin(name string) bool {
	switch name {
	case "htmlspecialchars", "websafe", "addslashes", "mysql_query", "echo",
		"print", "strlen", "count", "trim", "substr":
		return true
	}
	return false
}

func typeName(v *Value) string {
	switch v.Kind {
	case KNull:
		return "NULL"
	case KBool:
		return "boolean"
	case KNum:
		return "double"
	case KString:
		return "string"
	case KArray:
		return "array"
	default:
		return "resource"
	}
}

// websafe implements the instrumentor's default runtime guard.
func websafe(v *Value) *Value {
	if v.Kind == KArray {
		out := Array()
		for _, k := range sortedKeys(v) {
			out.Set(k, websafe(v.Elems[k]))
		}
		return out
	}
	if v.Kind == KResource {
		// Guarding a result handle sanitizes the rows it will deliver.
		rows := make([]*Value, len(v.Res.Rows))
		for i, r := range v.Res.Rows {
			rows[i] = websafe(r)
		}
		return &Value{Kind: KResource, Res: &Result{Rows: rows, next: v.Res.next}}
	}
	return Clean(htmlEscape(addSlashes(v.String())))
}

func passTaint(src *Value, s string) *Value {
	return &Value{Kind: KString, Str: s, Taint: src.AnyTaint()}
}

func joinArgs(args []*Value) *Value {
	var b strings.Builder
	taint := false
	for _, a := range args {
		b.WriteString(a.String())
		taint = taint || a.AnyTaint()
	}
	return &Value{Kind: KString, Str: b.String(), Taint: taint}
}

func stripTags(s string) string {
	var b strings.Builder
	in := false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '<':
			in = true
		case s[i] == '>':
			in = false
		case !in:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}
