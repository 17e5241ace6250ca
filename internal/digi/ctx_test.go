package digi

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
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

// TestSeverHoldsStatusesUntilHeal drives the runtime's broker link from
// several goroutines at once: four digis publish while the link is
// severed and healed over and over. Then, on a quiet runtime, a second
// Sever during an outage reports false, statuses published during the
// outage reach no subscriber, and Heal republishes each topic's latest
// status under its digi's name, so a drop rule scoped to D1 holds back
// D1's alone.
func TestSeverHoldsStatusesUntilHeal(t *testing.T) {
	b := broker.NewBroker(nil)
	t.Cleanup(b.Close)
	rt := &Runtime{Store: model.NewStore(), Log: trace.NewLog(), Registry: NewRegistry(), Broker: b}
	var mu sync.Mutex
	got := map[string][]string{}
	if err := b.SubscribeInProcess("app", "digibox/+/status", 1, func(m broker.Message) {
		mu.Lock()
		got[m.Topic] = append(got[m.Topic], string(m.Payload))
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	names := []string{"D0", "D1", "D2", "D3"}
	ctxs := make([]*Ctx, len(names))
	for i, name := range names {
		ctxs[i] = NewTestCtx(name, "Thing", rt, rng.New(1, 0), context.Background())
	}
	cause := errors.New("test cut")
	var wg sync.WaitGroup
	for _, c := range ctxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := c.Publish(map[string]any{"i": i}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			rt.Sever(cause)
			rt.Heal()
		}
	}()
	wg.Wait()

	if !rt.Sever(cause) {
		t.Fatal("Sever on a connected runtime reported false")
	}
	if rt.Sever(cause) {
		t.Fatal("a second Sever during the outage reported true")
	}
	mu.Lock()
	before := map[string]int{}
	for topic, ps := range got {
		before[topic] = len(ps)
	}
	mu.Unlock()
	for _, c := range ctxs {
		if err := c.Publish(map[string]any{"last": c.Name}); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	for topic, ps := range got {
		if len(ps) != before[topic] {
			t.Errorf("%s: %d statuses delivered during the outage", topic, len(ps)-before[topic])
		}
	}
	mu.Unlock()

	b.AddFault(broker.FaultRule{From: "D1", DropRate: 1})
	rt.Heal()
	mu.Lock()
	defer mu.Unlock()
	for _, name := range names {
		topic, want := "digibox/"+name+"/status", `{"last":"`+name+`"}`
		ps := got[topic][before[topic]:]
		switch {
		case name == "D1" && len(ps) != 0:
			t.Errorf("%s: republished %v past a drop rule scoped to D1", topic, ps)
		case name != "D1" && (len(ps) != 1 || ps[0] != want):
			t.Errorf("%s: republished %v, want [%s]", topic, ps, want)
		}
	}
	for _, m := range b.RetainedMatching("digibox/+/status") {
		if want := `{"last":"` + strings.Split(m.Topic, "/")[1] + `"}`; string(m.Payload) != want {
			t.Errorf("%s retains %s, want %s", m.Topic, m.Payload, want)
		}
	}
}
