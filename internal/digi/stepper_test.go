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

// A scene logs every write to its children before it commits the
// first: a child can react only to a commit, so none of its records
// can come ahead of a sibling's write in the trace.
func TestSceneLogsEveryWriteBeforeItCommits(t *testing.T) {
	reg := NewRegistry()
	reg.Register(occupancyKind())
	reg.Register(roomKind())
	rt := &Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
	room := roomKind().Schema.New("R1")
	room.Set("human_presence", true)
	room.Set("meta.attach", []any{"O1", "O2"})
	rt.Store.Create(room)
	rt.Store.Create(occupancyKind().Schema.New("O1"))
	rt.Store.Create(occupancyKind().Schema.New("O2"))
	var eventsAtCommit []int
	w := rt.Store.Watch(func(u model.Update) bool {
		eventsAtCommit = append(eventsAtCommit, len(rt.Log.Records()))
		return false
	})
	defer w.Close()
	s, err := rt.NewStepper(context.Background(), "R1")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Simulate()); got != 2 {
		t.Fatalf("the scene committed %d child writes, want 2", got)
	}
	if len(eventsAtCommit) != 2 || eventsAtCommit[0] != 2 || eventsAtCommit[1] != 2 {
		t.Fatalf("records logged at each child commit = %v, want both events before the first", eventsAtCommit)
	}
}
