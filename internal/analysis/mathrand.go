package analysis

import "strings"

// mathrandExempt is the benchmark harness's import path prefix: its
// load generators draw test inputs, not testbed behaviour, and never
// run under replay.
const mathrandExempt = "repro/bench"

// Mathrand flags imports of math/rand and math/rand/v2 in non-test
// files outside the benchmark harness. The testbed has one random
// source, internal/rng: keyed 8-byte streams whose draws are a pure
// function of the run's seeds. A second generator family would bring
// back per-instance 5 KB sources and seeding that replay cannot
// reproduce. Test files are exempt; they draw fuzz-style inputs.
var Mathrand = &Analyzer{
	Name: "mathrand",
	Doc:  "runtime code draws randomness from internal/rng streams, never math/rand",
	Run:  runMathrand,
}

func runMathrand(p *Pass) {
	if p.Pkg == mathrandExempt || strings.HasPrefix(p.Pkg, mathrandExempt+"/") {
		return
	}
	for _, f := range p.Files {
		if f.IsTest {
			continue
		}
		for _, imp := range f.AST.Imports {
			if path := strings.Trim(imp.Path.Value, `"`); path == "math/rand" || path == "math/rand/v2" {
				p.Reportf(imp.Pos(), "%s imported in %s; draw from an internal/rng stream so runs stay a function of their seeds", path, p.Pkg)
			}
		}
	}
}
