package digi

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// A digi's random source is an 8-byte stream, not a math/rand source
// (607 words, ≈ 5 KB, held for the digi's life): building a Stepper
// must stay far below a kilobyte of allocation, whether its stream is
// seeded from meta.seed or from the instance name.
func TestStepperHoldsNoLargeSource(t *testing.T) {
	reg := NewRegistry()
	reg.Register(occupancyKind())
	rt := &Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
	seeded := occupancyKind().Schema.New("O1")
	seeded.Set("meta.seed", 42)
	rt.Store.Create(seeded)
	rt.Store.Create(occupancyKind().Schema.New("O2"))

	const calls = 1000
	steppers := make([]*Stepper, 0, calls)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		s, err := rt.NewStepper(context.Background(), []string{"O1", "O2"}[i%2])
		if err != nil {
			t.Fatal(err)
		}
		steppers = append(steppers, s)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 1024 {
		t.Fatalf("NewStepper allocates %d B per call, want < 1 KB", per)
	}
	runtime.KeepAlive(steppers)
}
