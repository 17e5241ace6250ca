package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/trace"
)

// replayTestbed is an unpaced testbed holding one plain model per name.
// Nothing runs on it, so its clock moves only when Replay waits.
func replayTestbed(t *testing.T, names ...string) *Testbed {
	t.Helper()
	tb := newTestbed(t, Options{TimeScale: clock.SpeedMax, BrokerAddr: "none", RESTAddr: "none"})
	for _, n := range names {
		d := model.Doc{}
		d.SetMeta(model.Meta{Type: "Lamp", Version: "v1", Name: n, Managed: true})
		if err := tb.Store.Create(d); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// replayedCommit is one commit of a replayed "step" field: the model,
// its value, and the testbed clock's offset from the start of the
// replay.
type replayedCommit struct {
	name string
	step any
	at   time.Duration
}

// watchReplay records every commit that sets "step". The watch filter
// runs in the committing goroutine under the store's write lock, so
// each offset is the clock reading at its commit.
func watchReplay(t *testing.T, tb *Testbed) func() []replayedCommit {
	start := tb.Clock().Now()
	var mu sync.Mutex
	var got []replayedCommit
	w := tb.Store.Watch(func(u model.Update) bool {
		for _, c := range u.Changes {
			if c.Path == "step" {
				mu.Lock()
				got = append(got, replayedCommit{u.Name, c.New, tb.Clock().Now().Sub(start)})
				mu.Unlock()
			}
		}
		return false
	})
	t.Cleanup(w.Close)
	return func() []replayedCommit {
		mu.Lock()
		defer mu.Unlock()
		return append([]replayedCommit(nil), got...)
	}
}

// actions builds action records setting "step" to 1, 2, ... on the
// named models at the given trace offsets.
func actions(names []string, at ...time.Duration) []trace.Record {
	recs := make([]trace.Record, len(at))
	for i := range at {
		recs[i] = trace.Record{Seq: uint64(i + 1), TS: at[i], Kind: trace.KindAction,
			Name: names[i%len(names)], Sets: map[string]any{"step": int64(i + 1)}}
	}
	return recs
}

func offsets(commits []replayedCommit) []time.Duration {
	out := make([]time.Duration, len(commits))
	for i, c := range commits {
		out[i] = c.at
	}
	return out
}

// TestReplayAppliesActionsInOrder: action records are applied in
// trace order to the models they name, records naming a model that is
// not deployed are skipped, events and spans drive nothing, and every
// traced model stops generating events.
func TestReplayAppliesActionsInOrder(t *testing.T) {
	tb := replayTestbed(t, "O1", "L1")
	commits := watchReplay(t, tb)
	recs := actions([]string{"O1", "L1", "ghost"}, 0, time.Second, 2*time.Second, 3*time.Second)
	recs = append(recs,
		trace.Record{Seq: 5, TS: 4 * time.Second, Kind: trace.KindEvent, Name: "O1", Sets: map[string]any{"step": "event"}},
		trace.Record{Seq: 6, TS: 5 * time.Second, Kind: trace.KindSpan, Name: "L1", Sets: map[string]any{"step": "span"}})
	if err := tb.Replay(context.Background(), recs, 0); err != nil {
		t.Fatal(err)
	}
	var got []replayedCommit
	for _, c := range commits() {
		got = append(got, replayedCommit{name: c.name, step: c.step})
	}
	want := []replayedCommit{{name: "O1", step: int64(1)}, {name: "L1", step: int64(2)}, {name: "O1", step: int64(4)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed commits = %+v, want %+v", got, want)
	}
	for _, n := range []string{"O1", "L1"} {
		if d, err := tb.Check(n); err != nil || d.Managed() {
			t.Errorf("%s still managed after replay (%v)", n, err)
		}
	}
}

// TestReplaySpeedScaling: replay waits on the testbed's clock, not the
// wall clock, so on an unpaced testbed each commit lands exactly at its
// recorded offset from the first record divided by the speed, with no
// wall-clock wait.
func TestReplaySpeedScaling(t *testing.T) {
	for _, tc := range []struct {
		speed float64
		at    []time.Duration
		want  []time.Duration
	}{
		{2, []time.Duration{0, time.Second, 3 * time.Second}, []time.Duration{0, 500 * time.Millisecond, 1500 * time.Millisecond}},
		{4, []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 5 * time.Second}, []time.Duration{0, 250 * time.Millisecond, 500 * time.Millisecond, time.Second}},
	} {
		tb := replayTestbed(t, "L1")
		commits := watchReplay(t, tb)
		if err := tb.Replay(context.Background(), actions([]string{"L1"}, tc.at...), tc.speed); err != nil {
			t.Fatal(err)
		}
		if got := offsets(commits()); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("speed %v: commit offsets = %v, want %v", tc.speed, got, tc.want)
		}
	}
}

// TestReplayUnpacedDoesNotWait: speed <= 0 applies every record at
// once; the testbed clock does not move.
func TestReplayUnpacedDoesNotWait(t *testing.T) {
	for _, speed := range []float64{0, -1} {
		tb := replayTestbed(t, "L1")
		commits := watchReplay(t, tb)
		if err := tb.Replay(context.Background(), actions([]string{"L1"}, 0, time.Hour, 2*time.Hour), speed); err != nil {
			t.Fatal(err)
		}
		if got := offsets(commits()); !reflect.DeepEqual(got, []time.Duration{0, 0, 0}) {
			t.Fatalf("speed %v: commit offsets = %v, want all 0", speed, got)
		}
	}
}

// TestReplayStopsOnCancelledContext: a cancelled request context ends
// the replay with its error before the next record is applied.
func TestReplayStopsOnCancelledContext(t *testing.T) {
	tb := replayTestbed(t, "L1")
	commits := watchReplay(t, tb)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := tb.Replay(ctx, actions([]string{"L1"}, 0, time.Second), 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Replay on a cancelled context = %v, want context.Canceled", err)
	}
	if got := commits(); len(got) != 0 {
		t.Fatalf("a cancelled replay applied %+v", got)
	}
}
