package digi

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/trace"
)

func TestPublishWithoutBrokerStillLogs(t *testing.T) {
	reg := NewRegistry()
	rt := &Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: reg}
	c := NewTestCtx("X1", "Thing", rt, rng.New(1, 0), context.Background())
	if err := c.Publish(map[string]any{"a": 1}); err != nil {
		t.Fatal(err)
	}
	recs := rt.Log.Records()
	if len(recs) != 1 || recs[0].Kind != trace.KindMessage {
		t.Fatalf("records = %v", recs)
	}
	if recs[0].Topic != "digibox/X1/status" {
		t.Errorf("topic = %q", recs[0].Topic)
	}
	var payload map[string]any
	if err := json.Unmarshal([]byte(recs[0].Payload), &payload); err != nil {
		t.Fatalf("payload not JSON: %v", err)
	}
}

func TestPublishRejectsUnmarshalable(t *testing.T) {
	rt := &Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: NewRegistry()}
	c := NewTestCtx("X1", "Thing", rt, rng.New(1, 0), context.Background())
	if err := c.Publish(map[string]any{"bad": make(chan int)}); err == nil {
		t.Error("unmarshalable payload accepted")
	}
}

func TestCtxSleepCancellation(t *testing.T) {
	rt := &Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: NewRegistry()}
	ctx, cancel := context.WithCancel(context.Background())
	c := NewTestCtx("X1", "Thing", rt, rng.New(1, 0), ctx)
	if !c.Sleep(0) {
		t.Error("zero sleep should complete")
	}
	go func() {
		//dbox:allow sleepytest -- the cancel must fire while Sleep blocks; there is no condition to poll
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if c.Sleep(5 * time.Second) {
		t.Error("cancelled sleep reported completion")
	}
	if time.Since(start) > time.Second {
		t.Error("sleep did not abort on cancellation")
	}
}

func TestImageFactoryRequiresName(t *testing.T) {
	rt := &Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: NewRegistry()}
	f := rt.ImageFactory()
	if _, err := f(map[string]any{}); err == nil {
		t.Error("missing name accepted")
	}
	if _, err := f(map[string]any{"name": "x"}); err != nil {
		t.Errorf("valid env rejected: %v", err)
	}
}

func TestWaitReadyTimesOut(t *testing.T) {
	rt := &Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: NewRegistry()}
	if err := rt.WaitReady("never-started", 30*time.Millisecond); err == nil {
		t.Error("WaitReady on non-running digi should time out")
	}
}

func TestKindAccessors(t *testing.T) {
	k := &Kind{}
	if k.Type() != "" || k.Scene() {
		t.Error("zero kind accessors")
	}
	k = lampKind()
	if k.Type() != "Lamp" || k.Scene() {
		t.Error("lamp accessors")
	}
	r := roomKind()
	if !r.Scene() {
		t.Error("room should be a scene")
	}
}
