package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Run loads the packages under root matched by patterns and applies
// every analyzer, returning the surviving findings sorted by position.
// Findings covered by a //dbox:allow directive are suppressed; broken
// or unused directives become findings themselves (analyzer "allow").
func Run(root string, patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	fset := token.NewFileSet()
	pkgs, err := Load(fset, root, patterns)
	if err != nil {
		return nil, err
	}
	return RunPackages(fset, pkgs, analyzers), nil
}

// RunPackages applies analyzers to already-loaded packages — the
// entry point for the test harness, which builds fixture packages with
// synthetic import paths.
func RunPackages(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	running := map[string]bool{}
	for _, a := range analyzers {
		running[a.Name] = true
	}

	var directives []*directive
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			directives = append(directives, collectDirectives(fset, f)...)
		}
	}

	var raw []Finding
	report := func(f Finding) { raw = append(raw, f) }
	states := map[string]map[string]any{}
	for _, a := range analyzers {
		states[a.Name] = map[string]any{}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     fset,
				Pkg:      pkg.ImportPath,
				Files:    pkg.Files,
				State:    states[a.Name],
				report:   report,
			})
		}
	}
	for _, a := range analyzers {
		if a.Finish != nil {
			a.Finish(states[a.Name], report)
		}
		if states[a.Name][inactive] == true {
			running[a.Name] = false
		}
	}

	var out []Finding
	for _, f := range raw {
		if !suppressed(directives, f) {
			out = append(out, f)
		}
	}

	// Directive hygiene: syntax problems always; unknown names always;
	// unused only for analyzers that actually ran (a partial run must
	// not flag the others' directives).
	for _, d := range directives {
		switch {
		case d.bad != "":
			out = append(out, directiveFinding(d, d.bad))
		case !known[d.analyzer]:
			out = append(out, directiveFinding(d,
				fmt.Sprintf("dbox:allow names unknown analyzer %q", d.analyzer)))
		case running[d.analyzer] && !d.used:
			out = append(out, directiveFinding(d,
				fmt.Sprintf("unused dbox:allow directive: %s reports nothing here", d.analyzer)))
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

func directiveFinding(d *directive, msg string) Finding {
	return Finding{
		Analyzer: directiveAnalyzer,
		File:     d.file,
		Line:     d.line,
		Col:      d.col,
		Message:  msg,
	}
}
