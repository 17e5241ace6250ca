// Package analyzertest runs analyzers against fixture packages and
// checks their findings against golden "// want" annotations, in the
// style of golang.org/x/tools/go/analysis/analysistest but built on
// the in-house framework.
//
// A fixture is a directory of Go files (under testdata, so the go tool
// never builds them). Every line that should produce a finding carries
// a trailing comment:
//
//	time.Sleep(time.Second) // want `bare time\.Sleep`
//
// The backquoted text is a regexp matched against the finding message;
// multiple want comments on one line expect multiple findings. Lines
// without a want comment must produce no finding, so each fixture
// simultaneously pins hits, misses, and //dbox:allow suppressions.
package analyzertest

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

var wantPattern = regexp.MustCompile("// want `([^`]*)`")

// Run applies one analyzer to the fixture directory, which is loaded
// as a package with the given import path (so package-scoped analyzers
// like wallclock can be pointed at runtime and non-runtime paths).
func Run(t *testing.T, a *analysis.Analyzer, dir, importPath string) {
	t.Helper()
	fset := token.NewFileSet()
	pkg := loadFixture(t, fset, dir, importPath)
	findings := analysis.RunPackages(fset, []*analysis.Package{pkg}, []*analysis.Analyzer{a})
	checkWants(t, dir, findings)
}

// RunModule applies one analyzer to every package of the fixture
// module rooted at dir (a directory holding its own go.mod), so a
// whole-program analyzer sees roots and callees together. Import paths
// come from the fixture's go.mod; want comments are read from every
// file under dir.
func RunModule(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	findings, err := analysis.Run(dir, nil, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for i := range findings {
		findings[i].File = filepath.Join(dir, findings[i].File)
	}
	checkWants(t, dir, findings)
}

func loadFixture(t *testing.T, fset *token.FileSet, dir, importPath string) *analysis.Package {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture dir: %v", err)
	}
	pkg := &analysis.Package{ImportPath: importPath, Dir: dir}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse fixture: %v", err)
		}
		pkg.Files = append(pkg.Files, &analysis.File{
			Path:   path,
			AST:    f,
			IsTest: strings.HasSuffix(e.Name(), "_test.go"),
		})
	}
	if len(pkg.Files) == 0 {
		t.Fatalf("fixture %s has no Go files", dir)
	}
	return pkg
}

// checkWants compares findings against the fixture's want comments.
func checkWants(t *testing.T, dir string, findings []analysis.Finding) {
	t.Helper()
	type want struct {
		file    string
		line    int
		pattern *regexp.Regexp
		matched bool
	}
	var wants []*want
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantPattern.FindAllStringSubmatch(line, -1) {
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, m[1], err)
				}
				wants = append(wants, &want{file: path, line: i + 1, pattern: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})

	for _, f := range findings {
		ok := false
		for _, w := range wants {
			if !w.matched && w.file == f.File && w.line == f.Line && w.pattern.MatchString(f.Message) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}
