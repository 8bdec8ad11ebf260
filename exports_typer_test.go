package repro

import (
	"go/ast"
	"go/token"
	"maps"
)

// typ is a type as the syntax names it: a named type ("import/path.Name"),
// or a slice, array or map whose elements are elem.
type typ struct {
	named string
	elem  *typ
}

// fileCtx is where syntax is written: its package, its file's imports by
// local name, and the file.
type fileCtx struct {
	pkg     string
	imports map[string]string
	file    *ast.File
}

// typer attributes every selector X.Name of the program to the type that
// declares Name, when the syntax tells X's type: X is a variable whose
// declaration names its type or is assigned a composite literal, a call of
// a module function or method, a field, an index or a range element of
// one. Selectors it cannot place are kept by name, per package.
//
// It is a syntactic approximation, not a type checker: shadowing within
// one declaration statement and type-switch cases are not modelled, so a
// variable bound there counts as of unknown type.
type typer struct {
	types      map[string]bool            // declared type names, path.T
	members    map[string]*typ            // path.T.Name → the field's type; nil for a method
	methods    map[string]map[string]bool // path.T → its declared method names
	ifaces     []string                   // interface types, path.I
	embeds     map[string][]string
	results    map[string][]*typ // path.F or path.T.M → result types
	underlying map[string]*typ   // path.T → its slice, array or map type
	vars       map[string]*typ   // package-level variables, path.v

	typed   map[string]bool            // path.T.Name reached through a selector on a T
	untyped map[string]map[string]bool // import path → .Name selectors on values of unknown type
}

func newTyper() *typer {
	return &typer{
		types: map[string]bool{}, members: map[string]*typ{}, methods: map[string]map[string]bool{}, embeds: map[string][]string{},
		results: map[string][]*typ{}, underlying: map[string]*typ{}, vars: map[string]*typ{},
		typed: map[string]bool{}, untyped: map[string]map[string]bool{},
	}
}

// index learns the module's declarations, then walks every file.
func (x *typer) index(files []fileCtx) {
	for _, fc := range files {
		for _, d := range fc.file.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.TYPE {
				for _, s := range g.Specs {
					x.types[fc.pkg+"."+s.(*ast.TypeSpec).Name.Name] = true
				}
			}
		}
	}
	for _, fc := range files {
		for _, d := range fc.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := fc.pkg + "." + d.Name.Name
				if d.Recv != nil {
					t := fc.pkg + "." + recvName(d.Recv.List[0].Type)
					key = t + "." + d.Name.Name
					x.members[key] = nil
					x.method(t, d.Name.Name)
				}
				x.results[key] = x.fieldTypes(d.Type.Results, fc)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if s, ok := s.(*ast.TypeSpec); ok {
						x.typeSpec(fc.pkg+"."+s.Name.Name, s.Type, fc)
					}
				}
			}
		}
	}
	for _, fc := range files {
		for _, d := range fc.file.Decls {
			if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
				for _, s := range g.Specs {
					s := s.(*ast.ValueSpec)
					for i, t := range x.typesOf(len(s.Names), s.Type, s.Values, fc, nil) {
						x.vars[fc.pkg+"."+s.Names[i].Name] = t
					}
				}
			}
		}
	}
	for _, fc := range files {
		x.untyped[fc.pkg] = map[string]bool{}
	}
	for _, fc := range files {
		for _, d := range fc.file.Decls {
			var root ast.Node = d
			sc := map[string]*typ{}
			if f, ok := d.(*ast.FuncDecl); ok {
				if f.Body == nil {
					continue
				}
				x.bind(f.Recv, fc, sc)
				x.bind(f.Type.Params, fc, sc)
				x.bind(f.Type.Results, fc, sc)
				root = f.Body
			}
			x.walk(root, fc, sc)
		}
	}
}

// typeSpec learns type t's fields, embedded types, interface methods or
// composite underlying type from its declaration e.
func (x *typer) typeSpec(t string, e ast.Expr, fc fileCtx) {
	var fields []*ast.Field
	switch e := e.(type) {
	case *ast.StructType:
		fields = e.Fields.List
	case *ast.InterfaceType:
		fields = e.Methods.List
		x.ifaces = append(x.ifaces, t)
	default:
		x.underlying[t] = x.resolve(e, fc)
	}
	for _, f := range fields {
		ft := x.resolve(f.Type, fc)
		if len(f.Names) == 0 {
			if ft != nil {
				x.embeds[t] = append(x.embeds[t], ft.named)
			}
			continue
		}
		for _, n := range f.Names {
			x.members[t+"."+n.Name] = ft // nil for an interface method
			if fn, ok := f.Type.(*ast.FuncType); ok {
				x.results[t+"."+n.Name] = x.fieldTypes(fn.Results, fc)
				x.method(t, n.Name)
			}
		}
	}
}

func (x *typer) method(t, name string) {
	if x.methods[t] == nil {
		x.methods[t] = map[string]bool{}
	}
	x.methods[t][name] = true
}

// methodSet is named type t's method names, promoted ones included.
func (x *typer) methodSet(t string) map[string]bool {
	set := maps.Clone(x.methods[t])
	if set == nil {
		set = map[string]bool{}
	}
	for _, e := range x.embeds[t] {
		maps.Copy(set, x.methodSet(e))
	}
	return set
}

// viaIface reports whether method name of type t can be called through a
// module interface: one that carries name and whose every method t has,
// by name (signatures are not compared).
func (x *typer) viaIface(t, name string) bool {
	have := x.methodSet(t)
	for _, i := range x.ifaces {
		want := x.methodSet(i)
		if want[name] && subset(want, have) {
			return true
		}
	}
	return false
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// fieldTypes lists a field list's types, one per name.
func (x *typer) fieldTypes(fl *ast.FieldList, fc fileCtx) []*typ {
	if fl == nil {
		return nil
	}
	var out []*typ
	for _, f := range fl.List {
		t := x.resolve(f.Type, fc)
		for range max(1, len(f.Names)) {
			out = append(out, t)
		}
	}
	return out
}

// bind puts a field list's names in scope sc.
func (x *typer) bind(fl *ast.FieldList, fc fileCtx, sc map[string]*typ) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		t := x.resolve(f.Type, fc)
		for _, n := range f.Names {
			sc[n.Name] = t
		}
	}
}

// resolve names the type a type expression denotes.
func (x *typer) resolve(e ast.Expr, fc fileCtx) *typ {
	switch e := e.(type) {
	case *ast.Ident:
		if x.types[fc.pkg+"."+e.Name] {
			return &typ{named: fc.pkg + "." + e.Name}
		}
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok && fc.imports[id.Name] != "" {
			return &typ{named: fc.imports[id.Name] + "." + e.Sel.Name}
		}
	case *ast.StarExpr:
		return x.resolve(e.X, fc)
	case *ast.ParenExpr:
		return x.resolve(e.X, fc)
	case *ast.IndexExpr:
		return x.resolve(e.X, fc)
	case *ast.IndexListExpr:
		return x.resolve(e.X, fc)
	case *ast.ArrayType:
		return &typ{elem: x.resolve(e.Elt, fc)}
	case *ast.Ellipsis:
		return &typ{elem: x.resolve(e.Elt, fc)}
	case *ast.MapType:
		return &typ{elem: x.resolve(e.Value, fc)}
	}
	return nil
}

// owner returns the key of named type t's field or method name, promoted
// through embedded types, and whether t has one.
func (x *typer) owner(t, name string) (string, bool) {
	if _, ok := x.members[t+"."+name]; ok {
		return t + "." + name, true
	}
	for _, e := range x.embeds[t] {
		if k, ok := x.owner(e, name); ok {
			return k, true
		}
	}
	return "", false
}

// pkgOf returns the import path an identifier names in fc, unless a
// variable in scope sc shadows it.
func pkgOf(e ast.Expr, fc fileCtx, sc map[string]*typ) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if _, local := sc[id.Name]; local {
		return ""
	}
	return fc.imports[id.Name]
}

// typeOf infers the type of expression e in scope sc, nil when unknown.
func (x *typer) typeOf(e ast.Expr, fc fileCtx, sc map[string]*typ) *typ {
	switch e := e.(type) {
	case *ast.Ident:
		if t, ok := sc[e.Name]; ok {
			return t
		}
		return x.vars[fc.pkg+"."+e.Name]
	case *ast.ParenExpr:
		return x.typeOf(e.X, fc, sc)
	case *ast.StarExpr:
		return x.typeOf(e.X, fc, sc)
	case *ast.SliceExpr:
		return x.typeOf(e.X, fc, sc)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return x.typeOf(e.X, fc, sc)
		}
	case *ast.CompositeLit:
		return x.resolve(e.Type, fc)
	case *ast.TypeAssertExpr:
		return x.resolve(e.Type, fc)
	case *ast.IndexExpr:
		if t := x.under(x.typeOf(e.X, fc, sc)); t != nil {
			return t.elem
		}
	case *ast.SelectorExpr:
		if ip := pkgOf(e.X, fc, sc); ip != "" {
			return x.vars[ip+"."+e.Sel.Name]
		}
		if t := x.typeOf(e.X, fc, sc); t != nil {
			k, _ := x.owner(t.named, e.Sel.Name)
			return x.members[k]
		}
	case *ast.CallExpr:
		if res := x.call(e, fc, sc); len(res) > 0 {
			return res[0]
		}
	}
	return nil
}

// under returns t's slice, array or map type: t itself or its declared
// underlying type.
func (x *typer) under(t *typ) *typ {
	if t != nil && t.named != "" {
		return x.underlying[t.named]
	}
	return t
}

// call returns the result types of a call, or of a conversion.
func (x *typer) call(c *ast.CallExpr, fc fileCtx, sc map[string]*typ) []*typ {
	key := ""
	switch fn := c.Fun.(type) {
	case *ast.Ident:
		if _, local := sc[fn.Name]; local {
			return nil
		}
		switch fn.Name {
		case "new", "make":
			return []*typ{x.resolve(c.Args[0], fc)}
		case "append":
			return []*typ{x.typeOf(c.Args[0], fc, sc)}
		}
		key = fc.pkg + "." + fn.Name
	case *ast.SelectorExpr:
		if ip := pkgOf(fn.X, fc, sc); ip != "" {
			key = ip + "." + fn.Sel.Name
		} else if t := x.typeOf(fn.X, fc, sc); t != nil {
			key, _ = x.owner(t.named, fn.Sel.Name)
		}
	case *ast.ArrayType, *ast.MapType:
		return []*typ{x.resolve(fn, fc)}
	}
	if x.types[key] {
		return []*typ{{named: key}}
	}
	return x.results[key]
}

// typesOf returns the types of n names declared with type expression t, or
// given values: one per name, or the results of one call.
func (x *typer) typesOf(n int, t ast.Expr, values []ast.Expr, fc fileCtx, sc map[string]*typ) []*typ {
	out := make([]*typ, n)
	switch {
	case t != nil:
		rt := x.resolve(t, fc)
		for i := range out {
			out[i] = rt
		}
	case len(values) == n:
		for i, v := range values {
			out[i] = x.typeOf(v, fc, sc)
		}
	case len(values) == 1:
		if c, ok := values[0].(*ast.CallExpr); ok {
			copy(out, x.call(c, fc, sc))
		} else {
			out[0] = x.typeOf(values[0], fc, sc) // v, ok := m[k] or x.(T)
		}
	}
	return out
}

// walk records every selector under root, with sc the variables in scope;
// a nested block, clause or function literal gets a scope of its own.
func (x *typer) walk(root ast.Node, fc fileCtx, sc map[string]*typ) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.CaseClause, *ast.CommClause:
			if n != root {
				x.walk(n, fc, maps.Clone(sc))
				return false
			}
		case *ast.FuncLit:
			if n != root {
				inner := maps.Clone(sc)
				x.bind(n.Type.Params, fc, inner)
				x.bind(n.Type.Results, fc, inner)
				x.walk(n, fc, inner)
				return false
			}
		case *ast.RangeStmt:
			if n != root {
				x.walk(n, fc, maps.Clone(sc))
				return false
			}
			if n.Tok == token.DEFINE {
				var elem *typ
				if t := x.under(x.typeOf(n.X, fc, sc)); t != nil {
					elem = t.elem
				}
				if id, ok := n.Key.(*ast.Ident); ok {
					sc[id.Name] = nil
				}
				if id, ok := n.Value.(*ast.Ident); ok {
					sc[id.Name] = elem
				}
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for i, t := range x.typesOf(len(n.Lhs), nil, n.Rhs, fc, sc) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						sc[id.Name] = t
					}
				}
			}
		case *ast.ValueSpec:
			for i, t := range x.typesOf(len(n.Names), n.Type, n.Values, fc, sc) {
				sc[n.Names[i].Name] = t
			}
		case *ast.SelectorExpr:
			x.record(n, fc, sc)
		}
		return true
	})
}

// record attributes selector s to the type that declares it, when the
// syntax tells the type of s.X; otherwise it keeps s's name for fc's package.
func (x *typer) record(s *ast.SelectorExpr, fc fileCtx, sc map[string]*typ) {
	if pkgOf(s.X, fc, sc) != "" {
		return // pkg.Name, a qualified reference
	}
	if t := x.typeOf(s.X, fc, sc); t != nil {
		if k, ok := x.owner(t.named, s.Sel.Name); ok {
			x.typed[k] = true
			return
		}
	}
	x.untyped[fc.pkg][s.Sel.Name] = true
}
