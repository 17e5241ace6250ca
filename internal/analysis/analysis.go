// Package analysis is Digibox's in-house static-analysis framework: a
// small go/analysis-style multichecker built on the standard library
// only (go/ast, go/parser, go/types), so the repo stays dependency-free.
//
// Most analyzers are syntactic: each receives a parsed package and
// reports findings at token positions. The one whole-program analyzer,
// deadcode, collects every package and type-checks their non-test
// files in Finish. The runner handles package discovery, //dbox:allow
// suppression directives, and ordering, and is exposed to users as
// `dbox analyze`.
//
// The framework exists because the properties it checks are invariants
// the rest of the repo depends on — most importantly that runtime
// packages never read the wall clock directly (the replay engine's
// digest stability depends on every time source being injectable; see
// DESIGN.md).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
)

// A Finding is one diagnostic produced by an analyzer, positioned in a
// file relative to the repo root.
type Finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// An Analyzer checks one property over every loaded package.
type Analyzer struct {
	// Name is the identifier used in findings and //dbox:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is a one-line description for catalogues and -help output.
	Doc string
	// Run inspects one package and reports findings via the pass.
	Run func(*Pass)
	// Finish, if set, runs once after every package has been analyzed.
	// Cross-package checks (e.g. duplicate metric registrations)
	// accumulate into the pass State maps and report here.
	Finish func(state map[string]any, report func(Finding))
}

// inactive is the State key an analyzer's Finish sets when the loaded
// packages gave it nothing to judge (a whole-program analyzer run on a
// pattern with no main package); its directives then do not count as
// unused.
const inactive = "inactive"

// A Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg is the package's import path (module path + relative dir).
	Pkg string
	// Files holds every parsed file of the package, tests included;
	// analyzers filter by IsTest when they care.
	Files []*File
	// State is scratch shared across all of this analyzer's passes
	// within one Run invocation, for cross-package checks.
	State map[string]any

	report func(Finding)
}

// A File pairs a parsed AST with its repo-relative path.
type File struct {
	// Path is relative to the repo root, using forward slashes.
	Path string
	AST  *ast.File
	// IsTest reports whether the file name ends in _test.go.
	IsTest bool
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// timeImportName returns the local name under which f imports the
// standard "time" package, or "" when it is not imported (or is
// imported as _ or .). Analyzers use it to resolve time.Now-style
// selector references without type information.
func timeImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if imp.Path.Value != `"time"` {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "_" || imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name
		}
		return "time"
	}
	return ""
}

// isPkgCall reports whether call is pkgName.funcName(...) for a
// package imported under pkgName.
func isPkgCall(call *ast.CallExpr, pkgName, funcName string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	ident, ok := sel.X.(*ast.Ident)
	return ok && ident.Name == pkgName && sel.Sel.Name == funcName
}
