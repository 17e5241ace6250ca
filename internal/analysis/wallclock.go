package analysis

import (
	"go/ast"
	"go/token"
)

// wallclockPackages are the packages that run inside a testbed, whose
// behaviour must be the same on the replay engine's virtual clock and
// under -speed: any direct wall-clock read here is a determinism hole.
// internal/clock itself is the boundary (it owns the one legitimate
// time.Now); cmd, examples, ctl and vet are operator tooling.
var wallclockPackages = map[string]bool{
	"repro/internal/broker":   true,
	"repro/internal/chaos":    true,
	"repro/internal/core":     true,
	"repro/internal/digi":     true,
	"repro/internal/kube":     true,
	"repro/internal/obs":      true,
	"repro/internal/property": true,
	"repro/internal/replay":   true,
	"repro/internal/rest":     true,
	"repro/internal/swarm":    true,
	"repro/internal/trace":    true,
}

// wallclockFuncs are the time-package entry points that read or wait
// on the wall clock. Formatting/arithmetic helpers (time.Duration,
// time.Unix, time.Date, ...) are pure and stay allowed.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Wallclock flags direct wall-clock access in runtime packages: calls
// (and function-value references, e.g. `now: time.Now`) of time.Now,
// time.Sleep, time.Since, time.Until, time.After, time.AfterFunc,
// time.Tick, time.NewTimer, and time.NewTicker. Route them through an
// injected clock.Clock instead so replay and time-compressed runs
// observe identical timelines. Test files are exempt (sleepytest
// handles their failure mode).
//
// It also flags a select case receiving from an injected clock's
// After (`case <-clk.After(d):`): that wait leaves its timer armed when
// another case wins, and an unpaced clock cannot grant it in place.
// clock.SleepUntil is the one wait beside a context.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "runtime packages must use the injected clock, not the time package, for reading or waiting on time",
	Run:  runWallclock,
}

func runWallclock(p *Pass) {
	if !wallclockPackages[p.Pkg] {
		return
	}
	for _, f := range p.Files {
		if f.IsTest {
			continue
		}
		timeName := timeImportName(f.AST)
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if timeName != "" && isIdent(n.X, timeName) && wallclockFuncs[n.Sel.Name] {
					p.Reportf(n.Pos(),
						"direct time.%s in runtime package %s; use the injected clock.Clock so replay stays deterministic",
						n.Sel.Name, p.Pkg)
				}
			case *ast.CommClause:
				if sel := selectAfter(n.Comm); sel != nil && !isIdent(sel.X, timeName) {
					p.Reportf(sel.Pos(),
						"select on a clock's After in runtime package %s; wait with clock.SleepUntil, which disarms on cancel and lets an unpaced clock grant the wait in place",
						p.Pkg)
				}
			}
			return true
		})
	}
}

// selectAfter returns the X.After selector a select case receives
// from (`case <-X.After(d):` or `case v := <-X.After(d):`), or nil.
func selectAfter(comm ast.Stmt) *ast.SelectorExpr {
	var recv ast.Expr
	switch c := comm.(type) {
	case *ast.ExprStmt:
		recv = c.X
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			recv = c.Rhs[0]
		}
	}
	u, ok := recv.(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return nil
	}
	call, ok := u.X.(*ast.CallExpr)
	if !ok {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "After" {
		return nil
	}
	return sel
}

// isIdent reports whether e is the identifier name.
func isIdent(e ast.Expr, name string) bool {
	ident, ok := e.(*ast.Ident)
	return ok && ident.Name == name
}
