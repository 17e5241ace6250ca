// Package vettest builds iac.Setup fixtures and matching in-memory
// kind sources from declarative tables, for tests that assert a scene
// composition is vet-clean (or deliberately is not). The shipped
// examples declare their scenes with the same tables.
package vettest

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/digi"
	"repro/internal/iac"
	"repro/internal/model"
	"repro/internal/vet"
)

// Digi is one row of a declarative scene table: a mock or scene
// instance, its meta config overrides, and the children its attach
// list names.
type Digi struct {
	Type   string
	Name   string
	Config map[string]any
	Attach []string
}

// Setup builds a setup document and the kind source backing its kind
// references from a table of digis and the kind libraries they draw
// from. Each referenced kind is "committed" at its schema version.
//
//dbox:allow deadcode -- the examples' vet tests build their setups with it
func Setup(name string, kinds []*digi.Kind, digis []Digi) (*iac.Setup, vet.MemKinds, error) {
	byType := map[string]*model.Schema{}
	for _, k := range kinds {
		if k.Schema != nil {
			byType[k.Schema.Type] = k.Schema
		}
	}
	setup := &iac.Setup{Name: name, Kinds: map[string]string{}}
	mem := vet.MemKinds{}
	for _, d := range digis {
		schema, ok := byType[d.Type]
		if !ok {
			return nil, nil, fmt.Errorf("vettest: type %q not in the kind libraries", d.Type)
		}
		doc := schema.New(d.Name)
		for k, v := range d.Config {
			doc.Set("meta."+k, v)
		}
		if len(d.Attach) > 0 {
			children := make([]any, len(d.Attach))
			for i, c := range d.Attach {
				children[i] = c
			}
			doc.Set("meta.attach", children)
		}
		setup.Models = append(setup.Models, doc)
		if _, done := setup.Kinds[d.Type]; !done {
			ver := schema.Version
			if ver == "" {
				ver = "v1"
			}
			data, err := model.EncodeSchema(schema)
			if err != nil {
				return nil, nil, fmt.Errorf("vettest: encode %s schema: %w", d.Type, err)
			}
			setup.Kinds[d.Type] = ver
			mem[d.Type+"/"+ver] = data
		}
	}
	return setup, mem, nil
}

// SetupWithChaos builds the same fixture as Setup with a chaos plan
// attached to the header, for V013 (chaos-target) coverage.
//
//dbox:allow deadcode -- the examples' vet tests build their setups with it
func SetupWithChaos(name string, kinds []*digi.Kind, digis []Digi, plan *chaos.Plan) (*iac.Setup, vet.MemKinds, error) {
	setup, mem, err := Setup(name, kinds, digis)
	if err != nil {
		return nil, nil, err
	}
	setup.Chaos = plan
	return setup, mem, nil
}

// Deploy instantiates a scene table on a live testbed: every digi is
// run first, then the attachments are wired parent by parent.
func Deploy(tb *core.Testbed, digis []Digi) error {
	for _, d := range digis {
		if err := tb.Run(d.Type, d.Name, d.Config); err != nil {
			return fmt.Errorf("vettest: run %s %s: %w", d.Type, d.Name, err)
		}
	}
	for _, d := range digis {
		for _, child := range d.Attach {
			if err := tb.Attach(child, d.Name); err != nil {
				return fmt.Errorf("vettest: attach %s -> %s: %w", child, d.Name, err)
			}
		}
	}
	return nil
}
