package scene

import (
	"context"
	"testing"

	"repro/internal/device"
	"repro/internal/digi"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestEveryKindLoopSimPreservesSchema drives every shipped kind — all
// 20 devices and 18 scenes — through many Loop and Sim iterations with
// a seeded RNG and asserts the model stays schema-valid throughout.
// This is the library-wide behavioural invariant: no amount of event
// generation or simulation may corrupt a model.
func TestEveryKindLoopSimPreservesSchema(t *testing.T) {
	kinds := append(device.All(), All()...)
	for _, k := range kinds {
		k := k
		t.Run(k.Type(), func(t *testing.T) {
			reg := digi.NewRegistry()
			if err := reg.Register(k); err != nil {
				t.Fatal(err)
			}
			rt := &digi.Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
			doc := k.Schema.New("inst")
			if err := rt.Store.Create(doc); err != nil {
				t.Fatal(err)
			}
			c := digi.NewTestCtx("inst", k.Type(), rt, rng.New(99, 0), context.Background())
			work := model.NewDraft(doc)
			for i := 0; i < 200; i++ {
				if k.Loop != nil {
					if err := k.Loop(c, work); err != nil {
						t.Fatalf("loop iteration %d: %v", i, err)
					}
				}
				if k.Sim != nil {
					if err := k.Sim(c, work, digi.Atts{}); err != nil {
						t.Fatalf("sim iteration %d: %v", i, err)
					}
				}
				if err := k.Schema.Validate(work); err != nil {
					t.Fatalf("model invalid after iteration %d: %v\ndoc: %v", i, err, work)
				}
			}
		})
	}
}

// TestEverySceneSimIsIdempotent checks the convergence contract the
// digi runtime documents: running a scene's Sim twice over the same
// inputs must not produce further changes the second time, or the
// reconciler would loop forever. The live reconciler leans on it to
// skip the echoes of a scene's own child commits: the run they would
// trigger is this second pass.
//
// Scenes whose Sim uses randomness to distribute state (none shipped
// do; Fig. 5's building uses random.choices but ours is deterministic
// per human count) would violate this and be caught here.
func TestEverySceneSimIsIdempotent(t *testing.T) {
	kinds := map[string]*digi.Kind{}
	for _, k := range append(device.All(), All()...) {
		kinds[k.Type()] = k
	}
	// A generous attachment set covering what each scene coordinates,
	// sub-scenes included, so the contract holds for the scenes that
	// coordinate scenes (Building, Campus, City) too.
	mkAtts := func() digi.Atts {
		atts := digi.Atts{}
		add := func(typ string, names ...string) {
			group := map[string]*model.Draft{}
			for _, n := range names {
				group[n] = model.NewDraft(kinds[typ].Schema.New(n))
			}
			atts[typ] = group
		}
		add("Occupancy", "o1", "o2")
		add("Underdesk", "d1")
		add("Lamp", "l1")
		add("Fan", "f1")
		add("DoorLock", "k1")
		add("Camera", "c1")
		add("TemperatureSensor", "t1")
		add("HumiditySensor", "h1")
		add("CO2Sensor", "co1")
		add("NoiseSensor", "n1")
		add("AirQuality", "a1")
		add("WindowSensor", "w1")
		add("EnergyMeter", "e1")
		add("GPSTracker", "g1")
		add("CargoSensor", "cs1")
		add("Room", "r1", "r2")
		add("MeetingRoom", "mr1")
		add("Kitchen", "ki1")
		add("Office", "of1")
		add("Building", "b1")
		add("Truck", "tr1")
		add("Street", "st1")
		return atts
	}
	for _, k := range All() {
		k := k
		t.Run(k.Type(), func(t *testing.T) {
			if k.Sim == nil {
				t.Skip("no sim")
			}
			reg := digi.NewRegistry()
			reg.Register(k)
			rt := &digi.Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
			doc := k.Schema.New("s")
			rt.Store.Create(doc)
			c := digi.NewTestCtx("s", k.Type(), rt, rng.New(5, 0), context.Background())

			work := model.NewDraft(doc)
			atts := mkAtts()
			if err := k.Sim(c, work, atts); err != nil {
				t.Fatal(err)
			}
			// Snapshot after the first pass.
			after1 := work.Copy()
			attsSnap := map[string]map[string]model.Doc{}
			for typ, group := range atts {
				attsSnap[typ] = map[string]model.Doc{}
				for n, d := range group {
					attsSnap[typ][n] = d.Copy()
				}
			}
			// Second pass over the converged state must be a no-op.
			if err := k.Sim(c, work, atts); err != nil {
				t.Fatal(err)
			}
			if !model.Equal(work.Copy(), after1) {
				t.Errorf("scene model changed on second sim pass:\n%v\nvs\n%v",
					model.Diff(after1, work.Copy()), work.Copy())
			}
			for typ, group := range atts {
				for n, d := range group {
					if !model.Equal(d.Copy(), attsSnap[typ][n]) {
						t.Errorf("child %s/%s changed on second pass: %v",
							typ, n, model.Diff(attsSnap[typ][n], d.Copy()))
					}
				}
			}
		})
	}
}
