// Package iac implements Digibox's Infrastructure-as-Code support
// (§3.4, §4): a committed testbed setup is rendered as a declarative
// multi-document YAML configuration that uniquely reproduces it — the
// kind references (pointing at versioned definitions in the scene
// repository, the analogue of container-image references) plus the
// full model documents with their attachments. Another Digibox parses
// the config, pulls the kinds, and recreates the mocks and scenes.
package iac

import (
	"fmt"
	"sort"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/yamlite"
)

// Setup is a parsed testbed configuration.
type Setup struct {
	// Name identifies the setup in the scene repository.
	Name string
	// Kinds maps each referenced type to the repository version the
	// setup was built against ("Lamp" -> "v2").
	Kinds map[string]string
	// Models are the full model documents (meta.attach carries the
	// hierarchy).
	Models []model.Doc
	// Chaos is the optional scene-scoped fault plan (header "chaos"
	// section). Vet rule V013 checks its targets against the setup.
	Chaos *chaos.Plan
	// Swarm is the optional scale-out declaration (header "swarm"
	// section). Vet rule V015 checks it against the setup's device
	// fleet size.
	Swarm *SwarmConfig
	// Ctl is the optional control-plane declaration (header "ctl"
	// section): where the deployed daemon's /ctl API — and with it the
	// dashboard — should listen. Vet rule V017 checks the address
	// against ports the scene's own devices claim.
	Ctl *CtlConfig
	// Profile is the optional device-population traffic profile
	// (header "profile" section) the setup's swarm runs drive. Vet
	// rule V018 checks it for unsatisfiable cadence/burst/mix clauses
	// and population kinds with no kind reference.
	Profile *profile.Profile
}

// CtlConfig is the header "ctl" section.
type CtlConfig struct {
	// Listen is the host:port the control API binds.
	Listen string
}

// SwarmConfig is the header "swarm" section: how the setup's message
// plane should be provisioned when it is deployed at scale.
type SwarmConfig struct {
	// Shards is the broker shard count the setup deploys with.
	Shards int
}

// Marshal renders the setup. The first document is the header; every
// following document is one model.
func Marshal(s *Setup) ([]byte, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("iac: setup name required")
	}
	if err := Validate(s); err != nil {
		return nil, err
	}
	kinds := map[string]any{}
	for k, v := range s.Kinds {
		kinds[k] = v
	}
	header := map[string]any{
		"setup":   s.Name,
		"digibox": "v1",
		"kinds":   kinds,
	}
	if s.Chaos != nil {
		header["chaos"] = s.Chaos.Value()
	}
	if s.Swarm != nil {
		header["swarm"] = map[string]any{"shards": int64(s.Swarm.Shards)}
	}
	if s.Ctl != nil {
		header["ctl"] = map[string]any{"listen": s.Ctl.Listen}
	}
	if s.Profile != nil {
		header["profile"] = s.Profile.Value()
	}
	docs := []any{header}
	for _, m := range s.Models {
		docs = append(docs, map[string]any(m.DeepCopy()))
	}
	return yamlite.EncodeAll(docs)
}

// Unmarshal parses a setup configuration and validates its internal
// consistency.
func Unmarshal(data []byte) (*Setup, error) {
	s, err := Parse(data)
	if err != nil {
		return nil, err
	}
	if err := Validate(s); err != nil {
		return nil, err
	}
	return s, nil
}

// Parse decodes a setup configuration without validating it. Analysis
// tools (internal/vet) use it to report rich diagnostics on setups
// Validate would reject at the first problem.
func Parse(data []byte) (*Setup, error) {
	docs, err := yamlite.DecodeAll(data)
	if err != nil {
		return nil, err
	}
	if len(docs) == 0 {
		return nil, fmt.Errorf("iac: empty setup config")
	}
	header, ok := docs[0].(map[string]any)
	if !ok {
		return nil, fmt.Errorf("iac: first document must be the setup header")
	}
	name, _ := header["setup"].(string)
	if name == "" {
		return nil, fmt.Errorf("iac: header missing setup name")
	}
	s := &Setup{Name: name, Kinds: map[string]string{}}
	if kinds, ok := header["kinds"].(map[string]any); ok {
		for k, v := range kinds {
			ver, _ := v.(string)
			if ver == "" {
				return nil, fmt.Errorf("iac: kind %q has no version", k)
			}
			s.Kinds[k] = ver
		}
	}
	if raw, ok := header["chaos"]; ok {
		plan, err := chaos.PlanFromValue(raw)
		if err != nil {
			return nil, fmt.Errorf("iac: chaos section: %w", err)
		}
		s.Chaos = plan
	}
	if raw, ok := header["swarm"]; ok {
		m, ok := raw.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("iac: swarm section must be a mapping")
		}
		cfg := &SwarmConfig{}
		switch v := m["shards"].(type) {
		case int64:
			cfg.Shards = int(v)
		case int:
			cfg.Shards = v
		case float64:
			cfg.Shards = int(v)
		default:
			return nil, fmt.Errorf("iac: swarm section needs a numeric shards count")
		}
		s.Swarm = cfg
	}
	if raw, ok := header["ctl"]; ok {
		m, ok := raw.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("iac: ctl section must be a mapping")
		}
		listen, _ := m["listen"].(string)
		s.Ctl = &CtlConfig{Listen: listen}
	}
	if raw, ok := header["profile"]; ok {
		p, err := profile.FromValue(raw)
		if err != nil {
			return nil, fmt.Errorf("iac: profile section: %w", err)
		}
		s.Profile = p
	}
	for i, d := range docs[1:] {
		m, ok := d.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("iac: document %d is not a model", i+1)
		}
		s.Models = append(s.Models, model.Doc(m))
	}
	return s, nil
}

// Validate checks internal consistency: valid metas, unique names,
// attach references resolving to models in the setup, kind references
// present for every used type, and an acyclic attach hierarchy.
func Validate(s *Setup) error {
	names := map[string]model.Doc{}
	for _, m := range s.Models {
		meta, err := m.Meta()
		if err != nil {
			return fmt.Errorf("iac: %w", err)
		}
		if _, dup := names[meta.Name]; dup {
			return fmt.Errorf("iac: duplicate model name %q", meta.Name)
		}
		names[meta.Name] = m
		if s.Kinds != nil {
			if _, ok := s.Kinds[meta.Type]; !ok {
				return fmt.Errorf("iac: model %q uses type %q with no kind reference", meta.Name, meta.Type)
			}
		}
	}
	for _, m := range s.Models {
		for _, child := range m.Attach() {
			if _, ok := names[child]; !ok {
				return fmt.Errorf("iac: %q attaches unknown model %q", m.Name(), child)
			}
		}
	}
	if s.Chaos != nil {
		if err := s.Chaos.Validate(); err != nil {
			return fmt.Errorf("iac: %w", err)
		}
	}
	if s.Swarm != nil && s.Swarm.Shards < 1 {
		return fmt.Errorf("iac: swarm.shards must be at least 1, got %d", s.Swarm.Shards)
	}
	if s.Ctl != nil && s.Ctl.Listen == "" {
		return fmt.Errorf("iac: ctl section needs a listen address")
	}
	if s.Profile != nil {
		if err := s.Profile.Validate(); err != nil {
			return fmt.Errorf("iac: %w", err)
		}
	}
	return checkAcyclic(names)
}

func checkAcyclic(names map[string]model.Doc) error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(string) error
	visit = func(n string) error {
		switch color[n] {
		case gray:
			return fmt.Errorf("iac: attach cycle through %q", n)
		case black:
			return nil
		}
		color[n] = gray
		for _, child := range names[n].Attach() {
			if err := visit(child); err != nil {
				return err
			}
		}
		color[n] = black
		return nil
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	for _, n := range ordered {
		if err := visit(n); err != nil {
			return err
		}
	}
	return nil
}

// CreationOrder returns model names children-first (leaves before the
// scenes that attach them), so a recreating testbed can start each
// digi after everything it coordinates exists.
func CreationOrder(s *Setup) []string {
	names := map[string]model.Doc{}
	for _, m := range s.Models {
		names[m.Name()] = m
	}
	var out []string
	done := map[string]bool{}
	var visit func(string)
	visit = func(n string) {
		if done[n] {
			return
		}
		done[n] = true
		children := names[n].Attach()
		sorted := append([]string(nil), children...)
		sort.Strings(sorted)
		for _, c := range sorted {
			if _, ok := names[c]; ok {
				visit(c)
			}
		}
		out = append(out, n)
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	for _, n := range ordered {
		visit(n)
	}
	return out
}
