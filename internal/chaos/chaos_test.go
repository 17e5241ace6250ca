package chaos

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/yamlite"
)

// fakeInjectors records every injector call in order.
type fakeInjectors struct {
	mu    sync.Mutex
	calls []string
	// failClients simulates disconnect targets that are not connected.
	failClients map[string]bool
}

func (f *fakeInjectors) record(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, fmt.Sprintf(format, args...))
}

func (f *fakeInjectors) Calls() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, len(f.calls))
	copy(out, f.calls)
	return out
}

func (f *fakeInjectors) Disconnect(clientID string) bool {
	if f.failClients[clientID] {
		return false
	}
	f.record("disconnect %s", clientID)
	return true
}

func (f *fakeInjectors) AddMessageFault(mf MessageFault) func() {
	f.record("fault client=%s from=%s topic=%s drop=%g dup=%g delay=%s",
		mf.Client, mf.From, mf.Topic, mf.DropRate, mf.DupRate, mf.Delay)
	return func() { f.record("unfault topic=%s", mf.Topic) }
}

func (f *fakeInjectors) SetPartitions(groups [][]string) { f.record("partition %v", groups) }
func (f *fakeInjectors) ClearPartitions()                { f.record("heal") }
func (f *fakeInjectors) SetFaultSeed(seed int64)         { f.record("seed %d", seed) }
func (f *fakeInjectors) KillNode(name string) error      { f.record("node-down %s", name); return nil }
func (f *fakeInjectors) ReviveNode(name string) error    { f.record("node-up %s", name); return nil }
func (f *fakeInjectors) CrashPod(digi string) error      { f.record("crash %s", digi); return nil }
func (f *fakeInjectors) SetFault(digi, mode string, value float64) error {
	f.record("devfault %s %s %g", digi, mode, value)
	return nil
}
func (f *fakeInjectors) ClearFault(digi string) error { f.record("devclear %s", digi); return nil }

func testPlan() *Plan {
	return &Plan{
		Name: "unit",
		Seed: 7,
		Events: []Event{
			{At: 0, Fault: FaultDrop, Topic: "digibox/#", Rate: 0.5, For: 30 * time.Millisecond},
			{At: 5 * time.Millisecond, Fault: FaultDisconnect, Client: "c1", Jitter: 10 * time.Millisecond},
			{At: 10 * time.Millisecond, Fault: FaultNodeDown, Node: "n2", For: 20 * time.Millisecond},
			{At: 15 * time.Millisecond, Fault: FaultStuck, Digi: "S1", Value: 3, For: 10 * time.Millisecond},
			{At: 20 * time.Millisecond, Fault: FaultPodCrash, Digi: "S1"},
		},
	}
}

func runPlan(t *testing.T, p *Plan) (*fakeInjectors, *Report, *trace.Log) {
	t.Helper()
	inj := &fakeInjectors{}
	log := trace.NewLog()
	eng := &Engine{Broker: inj, Cluster: inj, Devices: inj, Log: log}
	rep, err := eng.Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return inj, rep, log
}

// Marshal encodes the plan as a standalone YAML document.
func (p *Plan) Marshal() ([]byte, error) {
	return yamlite.Encode(p.Value())
}

// The acceptance contract: two runs of the same seeded plan produce
// identical fault-event traces and identical injector call sequences.
func TestRunIsDeterministic(t *testing.T) {
	inj1, rep1, log1 := runPlan(t, testPlan())
	inj2, rep2, log2 := runPlan(t, testPlan())
	if !reflect.DeepEqual(inj1.Calls(), inj2.Calls()) {
		t.Errorf("injector calls diverged:\n%v\n%v", inj1.Calls(), inj2.Calls())
	}
	sig1, sig2 := Signature(log1.Records()), Signature(log2.Records())
	if len(sig1) == 0 {
		t.Fatal("no fault records logged")
	}
	if !reflect.DeepEqual(sig1, sig2) {
		t.Errorf("fault signatures diverged:\n%v\n%v", sig1, sig2)
	}
	if !reflect.DeepEqual(rep1.Applied, rep2.Applied) {
		t.Errorf("reports diverged:\n%v\n%v", rep1.Applied, rep2.Applied)
	}
}

// A different seed moves jittered events — the schedule is seed-driven.
func TestSeedChangesJitteredSchedule(t *testing.T) {
	p1, p2 := testPlan(), testPlan()
	p2.Seed = 8
	s1, err := Compile(p1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Compile(p2)
	if err != nil {
		t.Fatal(err)
	}
	var at1, at2 time.Duration
	for _, st := range s1 {
		if st.Event.Fault == FaultDisconnect {
			at1 = st.At
		}
	}
	for _, st := range s2 {
		if st.Event.Fault == FaultDisconnect {
			at2 = st.At
		}
	}
	if at1 == at2 {
		t.Errorf("jittered event fired at %v under both seeds", at1)
	}
}

func TestCompileExpandsReverts(t *testing.T) {
	steps, err := Compile(testPlan())
	if err != nil {
		t.Fatal(err)
	}
	// 5 events + 3 bounded reverts (drop, node-down, stuck).
	if len(steps) != 8 {
		t.Fatalf("got %d steps, want 8", len(steps))
	}
	reverts := 0
	for _, st := range steps {
		if st.RevertOf >= 0 {
			reverts++
		}
	}
	if reverts != 3 {
		t.Errorf("got %d reverts, want 3", reverts)
	}
}

func TestRunAppliesAndReverts(t *testing.T) {
	inj, rep, _ := runPlan(t, testPlan())
	if rep.Injected != 5 || rep.Reverted != 3 {
		t.Errorf("report = %+v", rep)
	}
	calls := inj.Calls()
	want := map[string]bool{}
	for _, c := range calls {
		want[c] = true
	}
	for _, c := range []string{
		"disconnect c1", "node-down n2", "node-up n2",
		"devfault S1 stuck 3", "devclear S1", "crash S1",
		"unfault topic=digibox/#",
	} {
		if !want[c] {
			t.Errorf("missing injector call %q in %v", c, calls)
		}
	}
}

func TestRunSkipsFailedInjection(t *testing.T) {
	inj := &fakeInjectors{failClients: map[string]bool{"ghost": true}}
	eng := &Engine{Broker: inj, Cluster: inj, Devices: inj}
	rep, err := eng.Run(context.Background(), &Plan{
		Name:   "skip",
		Events: []Event{{Fault: FaultDisconnect, Client: "ghost"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Injected != 0 || len(rep.Skipped) != 1 {
		t.Errorf("report = %+v", rep)
	}
}

func TestRunHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng := &Engine{Broker: &fakeInjectors{}}
	_, err := eng.Run(ctx, &Plan{
		Name:   "ctx",
		Events: []Event{{At: time.Hour, Fault: FaultDisconnect, Client: "c1"}},
	})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestParsePlanRoundTrip(t *testing.T) {
	src := []byte(`plan: flaky-wifi
seed: 42
events:
  - at_ms: 100
    fault: drop
    topic: "digibox/#"
    rate: 0.5
    for_ms: 400
  - at_ms: 200
    fault: disconnect
    client: digi-runtime
  - at_ms: 300
    fault: node-down
    node: n2
    for_ms: 250
  - at_ms: 400
    fault: stuck
    digi: S1
    value: 21.5
  - at_ms: 500
    fault: partition
    groups:
      - [a, b]
      - [c]
`)
	p, err := ParsePlan(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "flaky-wifi" || p.Seed != 42 || len(p.Events) != 5 {
		t.Fatalf("plan = %+v", p)
	}
	if p.Events[0].Topic != "digibox/#" || p.Events[0].Rate != 0.5 ||
		p.Events[0].For != 400*time.Millisecond {
		t.Errorf("event 0 = %+v", p.Events[0])
	}
	if got := p.Events[4].Groups; !reflect.DeepEqual(got, [][]string{{"a", "b"}, {"c"}}) {
		t.Errorf("groups = %v", got)
	}
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ParsePlan(data)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Errorf("round trip changed plan:\n%+v\n%+v", p, p2)
	}
	digis, topics := p.Targets()
	if !reflect.DeepEqual(digis, []string{"S1"}) || !reflect.DeepEqual(topics, []string{"digibox/#"}) {
		t.Errorf("targets = %v %v", digis, topics)
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	cases := []Plan{
		{Events: []Event{{Fault: "meteor"}}},
		{Events: []Event{{Fault: FaultDrop}}},                                 // missing rate
		{Events: []Event{{Fault: FaultDrop, Rate: 1.5}}},                      // rate out of range
		{Events: []Event{{Fault: FaultDisconnect}}},                           // missing client
		{Events: []Event{{Fault: FaultNodeDown}}},                             // missing node
		{Events: []Event{{Fault: FaultStuck}}},                                // missing digi
		{Events: []Event{{Fault: FaultPartition, Groups: [][]string{{"a"}}}}}, // one group
		{Events: []Event{{Fault: FaultDelay}}},                                // missing delay
		{Events: []Event{{Fault: FaultDrop, Rate: 0.5, At: -time.Second}}},
	}
	for i, p := range cases {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid plan accepted: %+v", i, p.Events)
		}
	}
	good := testPlan()
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}
