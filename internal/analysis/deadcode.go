package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/types"
	"maps"
	"strconv"
	"strings"
)

// Deadcode reports funcs, methods and types under internal/ and cmd/
// that no program reaches. It is the one whole-program analyzer: its
// passes only collect packages, and Finish type-checks their non-test
// files (go/types, the standard library imported from source) and
// walks references from the roots: every declaration of a main package
// and of the root facade digibox.go, every init func, and every
// package-level var and const.
//
// A method is reached when reached code names it, or when its receiver
// type is reached and satisfies an interface that has the method (so
// String, Error, ServeHTTP and the like count without a call). Tests
// are not roots: a helper only tests use belongs in a _test.go file,
// or carries a //dbox:allow deadcode directive naming its users; what
// an allowed declaration uses counts as reached. Packages only test
// files import are test support and are skipped. A run whose patterns
// load no main package has no roots and reports nothing.
var Deadcode = &Analyzer{
	Name: "deadcode",
	Doc:  "every func, method and type under internal/ and cmd/ is reachable from a main package or the root facade",
	Run: func(p *Pass) {
		passes, _ := p.State["passes"].([]*Pass)
		p.State["passes"] = append(passes, p)
	},
	Finish: finishDeadcode,
}

func finishDeadcode(state map[string]any, report func(Finding)) {
	passes, _ := state["passes"].([]*Pass)
	sources := map[string][]*ast.File{} // import path -> non-test files
	byCode, byTests := map[string]bool{}, map[string]bool{}
	hasMain := false
	for _, p := range passes {
		for _, f := range p.Files {
			if !f.IsTest {
				sources[p.Pkg] = append(sources[p.Pkg], f.AST)
				hasMain = hasMain || f.AST.Name.Name == "main"
			}
			for _, imp := range f.AST.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				byCode[path] = byCode[path] || !f.IsTest
				byTests[path] = byTests[path] || f.IsTest
			}
		}
	}
	if !hasMain {
		state[inactive] = true
		return
	}

	// Type-check every package but test support; the importer recurses
	// into the loaded set, so dependencies are checked first.
	fset := passes[0].Fset
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	stdlib := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	var conf types.Config
	check := func(path string) (*types.Package, error) {
		if _, loaded := sources[path]; !loaded {
			return stdlib.Import(path)
		}
		if pkg, ok := checked[path]; ok {
			return pkg, nil
		}
		pkg, err := conf.Check(path, fset, sources[path], info)
		checked[path] = pkg
		return pkg, err
	}
	conf.Importer = importerFunc(check)
	var live []*Pass
	for _, p := range passes {
		if _, ok := sources[p.Pkg]; !ok || byTests[p.Pkg] && !byCode[p.Pkg] {
			continue
		}
		live = append(live, p)
		if _, err := check(p.Pkg); err != nil {
			report(Finding{Analyzer: "deadcode", File: p.Pkg, Message: "type-check: " + err.Error()})
			return
		}
	}

	// Interfaces by method name: the universe's error, every interface
	// the checked code spells out, and every package-level interface of
	// the standard packages it imports.
	ifaces := map[string][]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.(*types.Interface); ok && it.IsMethodSet() {
			for i := 0; i < it.NumMethods(); i++ {
				ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying())
	for _, tv := range info.Types {
		addIface(tv.Type)
	}
	seen := map[*types.Package]bool{}
	for _, pkg := range checked {
		for _, imp := range pkg.Imports() {
			if _, loaded := sources[imp.Path()]; !loaded && !seen[imp] {
				seen[imp] = true
				for _, name := range imp.Scope().Names() {
					addIface(imp.Scope().Lookup(name).Type().Underlying())
				}
			}
		}
	}

	// Collect declarations: roots go on the queue, the rest are
	// candidates.
	decls := map[types.Object]ast.Node{}
	var candidates []types.Object
	allowed := map[types.Object]bool{}
	var queue []ast.Node
	for _, p := range live {
		for _, f := range p.Files {
			if f.IsTest {
				continue
			}
			root := f.AST.Name.Name == "main" || f.Path == "digibox.go"
			reported := strings.HasPrefix(f.Path, "internal/") || strings.HasPrefix(f.Path, "cmd/")
			declare := func(name *ast.Ident, n ast.Node, docs ...*ast.CommentGroup) {
				obj := info.Defs[name]
				decls[obj] = n
				switch {
				case root || name.Name == "init":
					queue = append(queue, n)
				case reported:
					candidates = append(candidates, obj)
					if allowsDeadcode(docs) {
						allowed[obj] = true
					}
				}
			}
			for _, d := range f.AST.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declare(d.Name, d, d.Doc)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(s.Name, s, s.Doc, d.Doc)
						case *ast.ValueSpec:
							queue = append(queue, s)
						}
					}
				}
			}
		}
	}

	// Walk references from the roots, then from the allowed
	// declarations: an allowed one stays reported (the directive
	// suppresses it, or is flagged unused once a program reaches it),
	// but what it uses is reached.
	reached := map[types.Object]bool{}
	var mark func(types.Object)
	mark = func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if reached[obj] {
			return
		}
		reached[obj] = true
		if n, ok := decls[obj]; ok {
			queue = append(queue, n)
		}
		named, ok := obj.Type().(*types.Named)
		if _, isType := obj.(*types.TypeName); !isType || !ok || types.IsInterface(named) {
			return
		}
		ptr := types.NewPointer(named)
		ms := types.NewMethodSet(ptr)
		for i := 0; i < ms.Len(); i++ {
			m := ms.At(i).Obj()
			for _, it := range ifaces[m.Name()] {
				// Implements is unspecified for an uninstantiated
				// generic type: keep its method on the name alone.
				if named.TypeParams().Len() > 0 || types.Implements(ptr, it) {
					mark(m)
					break
				}
			}
		}
	}
	drain := func() {
		for len(queue) > 0 {
			n := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil && info.Uses[id].Pkg() != nil {
					mark(info.Uses[id])
				}
				return true
			})
		}
	}
	drain()
	fromRoots := maps.Clone(reached)
	for obj := range allowed {
		mark(obj)
	}
	drain()

	for _, obj := range candidates {
		if fromRoots[obj] || reached[obj] && !allowed[obj] {
			continue
		}
		kind, name := "func", obj.Name()
		if _, ok := obj.(*types.TypeName); ok {
			kind = "type"
		} else if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
			kind = "method"
			name = strings.TrimPrefix(types.TypeString(recv.Type(), types.RelativeTo(obj.Pkg())), "*") + "." + name
		}
		pos := fset.Position(obj.Pos())
		report(Finding{Analyzer: "deadcode", File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: fmt.Sprintf("%s %s is reached by no main package or the root facade; delete it, move it into a _test.go file, or name its users in a //dbox:allow", kind, name)})
	}
}

// allowsDeadcode reports whether a declaration's doc comments carry a
// deadcode allow directive.
func allowsDeadcode(docs []*ast.CommentGroup) bool {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if strings.HasPrefix(c.Text, allowPrefix+" deadcode") {
				return true
			}
		}
	}
	return false
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
