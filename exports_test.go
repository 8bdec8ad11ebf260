package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal/ identifiers that keep no
// caller in program code, each with why it stays. Keys are pkg.Name for a
// top-level name and pkg.Type.Method for a method, pkg being the path under
// internal/. TestExportedNamesHaveCallers checks the list both ways: a
// listed name that gains a caller, or that is gone, fails the test too.
var exportAllowlist = map[string]string{
	// Test hooks that tests in other packages, or external _test packages,
	// call; an in-package _test.go file cannot serve them.
	"storage.Hierarchy.SetRetryPolicy":   "test hook: core and storage_test shorten retry backoff",
	"storage.Hierarchy.SetEnvelopeBlock": "test hook: core tests shrink the envelope block to cover block-scoped verification",
	"storage.Hierarchy.InjectFaults":     "test hook: core and storage_test inject deterministic faults",
	"obs.LastEventSeq":                   "test hook: event tests across packages isolate their own events",
	"obs.ResetEvents":                    "test hook: obs_test starts from an empty flight recorder",
	"obs.ResetTraces":                    "test hook: obs_test and core start from an empty trace ring",
	"obs.SetTraceRetention":              "test hook: obs_test bounds the trace ring",
	"obs.SetEventRetention":              "test hook: obs_test bounds the flight recorder",
	"obs.EventTypes":                     "test hook: obs_test's event lints walk the registered set",
	"obs.Span.Dump":                      "test hook: core and obs_test print span trees on failure",
	"engine.Cache.Size":                  "test hook: compress's TileCache.SizeBytes and server's reader-cache tests read a cache's resident cost",
	"bp.Writer.PutFloats":                "test hook: adios and bp_test build containers of raw floats",
	"bp.Reader.AttrKeys":                 "test hook: core's golden and geometry tests hash every attribute",
	"bp.Reader.ReadFloats":               "test hook: adios and bp tests read back what PutFloats wrote",

	// Pinned by golden tests.
	"core.SeriesReader.RetrieveStepToTolerance": "TestReadPathsGolden pins its bytes and costs",

	// Kept by the owner's decision (ROADMAP Deferred, compress.ZFP2D).
	"compress.NewZFP2D": "the deferred 2D codec's constructor; only its tests reach it",
}

// ifaceMethodsOutside are method names that satisfy an interface declared
// outside the module, so a method of that name is called through it.
var ifaceMethodsOutside = map[string]string{
	"String": "fmt.Stringer",
	"Error":  "error",
	"ReadAt": "io.ReaderAt",
}

// TestExportedNamesHaveCallers holds internal/'s public surface to what
// the program calls. It parses every non-test file of cmd/, examples/,
// internal/, the module root and benchmark/ (syntax only: type checking
// the module takes tens of seconds) and reports:
//   - an exported top-level name in internal/ that no other declaration
//     references, as pkg.Name from another package or as Name in its own;
//   - an exported method in internal/ that no selector reaches, unless its
//     name satisfies an interface outside the module or its type has every
//     method of a module interface that carries it;
//   - an exported method of an internal/ interface that no selector
//     reaches.
//
// Methods are keyed by receiver type. A selector X.Name reaches T.Name when
// the syntax tells that X is a T, or a type embedding one (typer, in
// exports_typer_test.go). When it does not tell, the selector reaches every
// method of that name in its own package and in those it imports, directly
// or not, since only those can hold a T: a .Size on an os.FileInfo in storage,
// which does not import engine, does not reach engine.Cache.Size.
//
// A name only tests use belongs in a _test.go file of its package, or on
// exportAllowlist with its reason when tests of other packages need it.
func TestExportedNamesHaveCallers(t *testing.T) {
	pkgs := parseModule(t)
	r := collectRefs(pkgs)
	declared, unused := map[string]bool{}, map[string]bool{}
	for _, d := range exportedDecls(pkgs) {
		declared[d.key] = true
		if !r.referenced(d) {
			unused[d.key] = true
		}
	}
	var names []string
	for name := range unused {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := exportAllowlist[name]; !ok {
			t.Errorf("%s has no caller outside tests: delete it, move it into its package's _test.go, or allowlist it with a reason", name)
		}
	}
	for name := range exportAllowlist {
		switch {
		case !declared[name]:
			t.Errorf("allowlisted %s is not declared: drop it from exportAllowlist", name)
		case !unused[name]:
			t.Errorf("allowlisted %s now has a caller: drop it from exportAllowlist", name)
		}
	}
}

// goPkg is one directory's non-test files.
type goPkg struct {
	path  string // import path
	name  string // package clause
	files []*ast.File
}

// internalKey is the allowlist prefix of an internal/ package, "" outside.
func (p *goPkg) internalKey() string {
	rest, ok := strings.CutPrefix(p.path, "repro/internal/")
	if !ok {
		return ""
	}
	return rest
}

func parseModule(t *testing.T) map[string]*goPkg {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*goPkg{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ipath := path.Join("repro", filepath.ToSlash(filepath.Dir(p)))
		pkg := pkgs[ipath]
		if pkg == nil {
			pkg = &goPkg{path: ipath, name: f.Name.Name}
			pkgs[ipath] = pkg
		}
		pkg.files = append(pkg.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// decl is one exported name in internal/: key is its allowlist form.
type decl struct {
	key   string
	pkg   *goPkg
	name  string
	node  ast.Node // the whole declaration, whose own references don't count
	iface bool     // a method of an interface type
	recv  string   // the receiver type of a method, "" for top-level names
}

func exportedDecls(pkgs map[string]*goPkg) []decl {
	var out []decl
	for _, pkg := range pkgs {
		pk := pkg.internalKey()
		if pk == "" {
			continue
		}
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						out = append(out, decl{key: pk + "." + d.Name.Name, pkg: pkg, name: d.Name.Name, node: d})
						continue
					}
					recv := recvName(d.Recv.List[0].Type)
					out = append(out, decl{key: pk + "." + recv + "." + d.Name.Name, pkg: pkg, name: d.Name.Name, node: d, recv: recv})
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								out = append(out, decl{key: pk + "." + s.Name.Name, pkg: pkg, name: s.Name.Name, node: s})
							}
							it, ok := s.Type.(*ast.InterfaceType)
							if !ok {
								continue
							}
							for _, m := range it.Methods.List {
								for _, n := range m.Names {
									if n.IsExported() {
										out = append(out, decl{key: pk + "." + s.Name.Name + "." + n.Name, pkg: pkg, name: n.Name, node: m, iface: true, recv: s.Name.Name})
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									out = append(out, decl{key: pk + "." + n.Name, pkg: pkg, name: n.Name, node: n})
								}
							}
						}
					}
				}
			}
		}
	}
	return out
}

// recvName is the type name of a method receiver: T, *T, T[K] or *T[K, V].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// refs is every reference the parsed program makes, by syntax alone.
type refs struct {
	*typer                               // selectors, by receiver type where the syntax tells it
	reach     map[string]map[string]bool // import path → module packages it imports, directly or not, and itself
	qualified map[string]map[string]bool // import path → names used as pkg.Name
	local     map[*goPkg][]*ast.Ident    // bare identifiers, by package
}

func collectRefs(pkgs map[string]*goPkg) *refs {
	r := &refs{
		typer:     newTyper(),
		reach:     map[string]map[string]bool{},
		qualified: map[string]map[string]bool{},
		local:     map[*goPkg][]*ast.Ident{},
	}
	direct := map[string]map[string]bool{} // import path → module packages it imports
	var files []fileCtx
	byName := map[string]string{} // import path → package clause, for unaliased imports
	for ip, pkg := range pkgs {
		byName[ip] = pkg.name
	}
	for _, pkg := range pkgs {
		direct[pkg.path] = map[string]bool{}
		for _, f := range pkg.files {
			imports := map[string]string{} // local name → import path
			for _, im := range f.Imports {
				ip, _ := strconv.Unquote(im.Path.Value)
				if pkgs[ip] != nil {
					direct[pkg.path][ip] = true
				}
				local := byName[ip]
				if local == "" {
					local = path.Base(ip)
				}
				if im.Name != nil {
					local = im.Name.Name
				}
				imports[local] = ip
			}
			files = append(files, fileCtx{pkg.path, imports, f})
			skip := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					skip[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if ip, ok := imports[x.Name]; ok {
							if r.qualified[ip] == nil {
								r.qualified[ip] = map[string]bool{}
							}
							r.qualified[ip][n.Sel.Name] = true
						}
					}
				case *ast.FuncDecl:
					skip[n.Name] = true
					if n.Recv != nil {
						// A method's receiver type is its own declaration,
						// not a use of the type.
						ast.Inspect(n.Recv, func(m ast.Node) bool {
							if id, ok := m.(*ast.Ident); ok {
								skip[id] = true
							}
							return true
						})
					}
				case *ast.TypeSpec:
					skip[n.Name] = true
				case *ast.ValueSpec:
					for _, id := range n.Names {
						skip[id] = true
					}
				case *ast.Field:
					for _, id := range n.Names {
						skip[id] = true
					}
				case *ast.Ident:
					if !skip[n] {
						r.local[pkg] = append(r.local[pkg], n)
					}
				}
				return true
			})
		}
	}
	var reach func(ip string) map[string]bool
	reach = func(ip string) map[string]bool {
		if r.reach[ip] == nil {
			r.reach[ip] = map[string]bool{ip: true}
			for dep := range direct[ip] {
				for p := range reach(dep) {
					r.reach[ip][p] = true
				}
			}
		}
		return r.reach[ip]
	}
	for ip := range pkgs {
		reach(ip)
	}
	r.index(files)
	return r
}

// referenced reports whether program code refers to d.
func (r *refs) referenced(d decl) bool {
	if d.recv == "" {
		return r.qualified[d.pkg.path][d.name] || usedLocally(r.local[d.pkg], d)
	}
	if r.typed[d.pkg.path+"."+d.recv+"."+d.name] {
		return true
	}
	for ip, sel := range r.untyped {
		if sel[d.name] && r.reach[ip][d.pkg.path] {
			return true
		}
	}
	if d.iface {
		return false
	}
	_, outside := ifaceMethodsOutside[d.name]
	return outside || r.viaIface(d.pkg.path+"."+d.recv, d.name)
}

// usedLocally reports whether a bare identifier in d's package, outside d's
// own declaration, names d.
func usedLocally(ids []*ast.Ident, d decl) bool {
	for _, id := range ids {
		if id.Name == d.name && (id.Pos() < d.node.Pos() || id.Pos() >= d.node.End()) {
			return true
		}
	}
	return false
}
