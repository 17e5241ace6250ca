// Package vet implements a static-analysis pass over scene setups: a
// diagnostics engine (rule registry, severities, stable rule IDs,
// document positions, text and JSON output) plus a suite of analyzers
// over iac.Setup documents and the scene repository.
//
// The paper's repository workflow (§3.4) stores testbed setups as
// Git-committed IaC configs; a broken setup — a dangling attach
// reference, a scene-graph cycle, a kind pinned to a version the
// repository doesn't have, two mocks claiming the same MQTT topic —
// otherwise only surfaces when the testbed is deployed. Vet is the
// commit-time analyzer: it runs from "dbox vet", as a pre-commit gate
// in the scene repository, and on deploy paths before run/recreate.
package vet

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/iac"
	"repro/internal/model"
	"repro/internal/profile"
)

// Severity ranks a diagnostic.
type Severity int

const (
	// Info diagnostics are advisory (e.g. an unused kind reference).
	Info Severity = iota
	// Warning diagnostics flag likely mistakes that do not block
	// commit or deploy (e.g. an orphaned model).
	Warning
	// Error diagnostics block repository commits and deploys.
	Error
)

var severityNames = [...]string{"info", "warning", "error"}

func (s Severity) String() string {
	if s < Info || s > Error {
		return fmt.Sprintf("severity(%d)", int(s))
	}
	return severityNames[s]
}

// MarshalJSON renders the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses a severity name.
func (s *Severity) UnmarshalJSON(data []byte) error {
	name := strings.Trim(string(data), `"`)
	for i, n := range severityNames {
		if n == name {
			*s = Severity(i)
			return nil
		}
	}
	return fmt.Errorf("vet: unknown severity %q", name)
}

// Diagnostic is one finding. Doc is the document index in the setup's
// multi-document stream: 0 is the header, model i is document i+1.
type Diagnostic struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	File     string   `json:"file,omitempty"`
	Doc      int      `json:"doc"`
	Model    string   `json:"model,omitempty"`
	Message  string   `json:"message"`
}

// String renders the diagnostic in the text output format:
//
//	file#2: V001 error: "Room" attaches unknown model "Ghost"
func (d Diagnostic) String() string {
	pos := d.File
	if pos == "" {
		pos = "setup"
	}
	return fmt.Sprintf("%s#%d: %s %s: %s", pos, d.Doc, d.Rule, d.Severity, d.Message)
}

// Scope declares what a rule needs to run.
type Scope int

const (
	// SetupScope rules analyze a whole setup (graph shape, kind refs,
	// cross-model topic claims).
	SetupScope Scope = iota
	// DocScope rules analyze one model document in isolation and also
	// run on deploy paths for single documents (dbox run).
	DocScope
)

// Rule is one registered analyzer.
type Rule struct {
	// ID is the stable rule identifier ("V001").
	ID string
	// Name is the short kebab-case rule name ("dangling-attach").
	Name string
	// Severity is the severity the rule emits at.
	Severity Severity
	// Scope declares whether the rule runs on single documents too.
	Scope Scope
	// Doc is a one-line description for "dbox vet" help and README.
	Doc string
	// Run analyzes the setup in ctx.
	Run func(ctx *Context) []Diagnostic
}

var (
	rulesMu sync.RWMutex
	rules   []Rule
)

// RegisterRule installs an analyzer. Rules are run in ID order.
// Registering a duplicate ID panics: rule IDs are a stable namespace.
func RegisterRule(r Rule) {
	rulesMu.Lock()
	defer rulesMu.Unlock()
	for _, have := range rules {
		if have.ID == r.ID {
			panic("vet: duplicate rule ID " + r.ID)
		}
	}
	// A new backing array each time, so a slice registered returned
	// earlier is never written again.
	next := append(slices.Clip(rules), r)
	sort.Slice(next, func(i, j int) bool { return next[i].ID < next[j].ID })
	rules = next
}

// Rules returns a copy of the registered analyzers in ID order.
//
//dbox:allow deadcode -- the registry's accessor for callers outside the package; vet's tests list the rules through it
func Rules() []Rule {
	return slices.Clone(registered())
}

// registered returns the registry itself, not a copy; the caller must
// not modify it.
func registered() []Rule {
	rulesMu.RLock()
	defer rulesMu.RUnlock()
	return rules
}

// KindSource resolves committed kind documents (the schema contracts
// a setup's kind references pin). The scene repository implements it;
// MemKinds provides an in-memory variant for tests.
type KindSource interface {
	// KindDoc returns the committed document of typ at version.
	KindDoc(typ, version string) ([]byte, error)
}

// MemKinds is an in-memory KindSource keyed "Type/version".
type MemKinds map[string][]byte

// KindDoc implements KindSource.
func (m MemKinds) KindDoc(typ, version string) ([]byte, error) {
	data, ok := m[typ+"/"+version]
	if !ok {
		return nil, fmt.Errorf("vet: kind %s/%s not found", typ, version)
	}
	return data, nil
}

// Context carries one setup through the analyzers.
type Context struct {
	// Setup is the parsed setup under analysis.
	Setup *iac.Setup
	// File is the origin (file path or repository ref) for positions.
	File string
	// Kinds resolves committed kind documents; nil disables the
	// repository-dependent rules (kind-unresolved, schema-mismatch).
	Kinds KindSource

	schemaMu sync.Mutex
	schemas  map[string]*model.Schema // type -> decoded schema (nil if unresolvable)
}

// docIndex returns the document index of the named model (0 = header
// when unknown).
func (ctx *Context) docIndex(name string) int {
	for i, m := range ctx.Setup.Models {
		if m.Name() == name {
			return i + 1
		}
	}
	return 0
}

// schema resolves the committed schema for a type via the setup's kind
// pin and the KindSource, caching results. It returns (nil, false)
// when the context has no KindSource or the kind cannot be resolved —
// resolution failures are reported by their own rule.
func (ctx *Context) schema(typ string) (*model.Schema, bool) {
	if ctx.Kinds == nil || ctx.Setup.Kinds == nil {
		return nil, false
	}
	ctx.schemaMu.Lock()
	defer ctx.schemaMu.Unlock()
	if ctx.schemas == nil {
		ctx.schemas = map[string]*model.Schema{}
	}
	if s, cached := ctx.schemas[typ]; cached {
		return s, s != nil
	}
	var s *model.Schema
	if ver, ok := ctx.Setup.Kinds[typ]; ok {
		if data, err := ctx.Kinds.KindDoc(typ, ver); err == nil {
			if decoded, err := model.DecodeSchema(data); err == nil {
				s = decoded
			}
		}
	}
	ctx.schemas[typ] = s
	return s, s != nil
}

// Run executes every registered rule over the context and returns the
// diagnostics sorted by document, rule, then message.
func Run(ctx *Context) []Diagnostic {
	return run(ctx, func(Rule) bool { return true })
}

func run(ctx *Context, want func(Rule) bool) []Diagnostic {
	var out []Diagnostic
	for _, r := range registered() {
		if !want(r) {
			continue
		}
		for _, d := range r.Run(ctx) {
			if d.Rule == "" {
				d.Rule = r.ID
			}
			if d.File == "" {
				d.File = ctx.File
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Doc != b.Doc {
			return a.Doc < b.Doc
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return out
}

// RunData parses and analyzes a raw setup configuration. A config that
// does not parse yields the single V000 parse-error diagnostic.
func RunData(file string, data []byte, kinds KindSource) []Diagnostic {
	s, err := iac.Parse(data)
	if err != nil {
		return []Diagnostic{{
			Rule: "V000", Severity: Error, File: file,
			Message: fmt.Sprintf("setup does not parse: %v", err),
		}}
	}
	return Run(&Context{Setup: s, File: file, Kinds: kinds})
}

// RunProfileData parses and analyzes a standalone device-profile
// document — the "dbox vet" path for committed profiles and capture
// output. A profile that does not parse yields the single V000
// parse-error diagnostic; a parsed one runs through the
// profile-unsatisfiable analyzer (V018) wrapped in a synthetic
// header-only setup, so standalone and setup-embedded profiles get
// identical findings.
func RunProfileData(file string, data []byte) []Diagnostic {
	p, err := profile.Parse(data)
	if err != nil {
		return []Diagnostic{{
			Rule: "V000", Severity: Error, File: file,
			Message: fmt.Sprintf("profile does not parse: %v", err),
		}}
	}
	s := &iac.Setup{Name: p.Name, Profile: p}
	return run(&Context{Setup: s, File: file}, func(r Rule) bool {
		return r.ID == "V018"
	})
}

// CheckDoc runs the document-scope rules (topic syntax, config bounds)
// over a single model document — the deploy-path check of "dbox run".
func CheckDoc(doc model.Doc) []Diagnostic {
	s := &iac.Setup{Name: doc.Name(), Models: []model.Doc{doc}}
	return run(&Context{Setup: s, File: doc.Name()}, func(r Rule) bool {
		return r.Scope == DocScope
	})
}

// HasErrors reports whether any diagnostic is error-severity.
//
//dbox:allow deadcode -- ctl's tests gate on vet results with it
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Errors returns only the error-severity diagnostics.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// Text renders diagnostics one per line.
func Text(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Summary renders diagnostics on a single line ("; "-joined), for
// embedding in error messages.
func Summary(diags []Diagnostic) string {
	parts := make([]string, len(diags))
	for i, d := range diags {
		parts[i] = fmt.Sprintf("%s %s: %s", d.Rule, d.Severity, d.Message)
	}
	return strings.Join(parts, "; ")
}

// Bounds is an inclusive numeric range for a device config key.
type Bounds struct {
	Min, Max float64
}

var (
	boundsMu     sync.RWMutex
	configBounds = map[string]map[string]Bounds{}
)

// DeclareConfigBounds registers the valid range of a meta config key
// for a device type. Kind libraries (internal/device) declare their
// sensor/actuator bounds here; the config-bounds analyzer checks model
// documents against them.
func DeclareConfigBounds(typ, key string, min, max float64) {
	boundsMu.Lock()
	defer boundsMu.Unlock()
	m, ok := configBounds[typ]
	if !ok {
		m = map[string]Bounds{}
		configBounds[typ] = m
	}
	m[key] = Bounds{Min: min, Max: max}
}

// declaredBounds returns the registered bounds for a type (nil if none).
func declaredBounds(typ string) map[string]Bounds {
	boundsMu.RLock()
	defer boundsMu.RUnlock()
	return configBounds[typ]
}
