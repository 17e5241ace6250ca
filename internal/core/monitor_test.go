package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/property"
	"repro/internal/trace"
)

// The live checker is CheckTrace run on the growing trace: at any
// speed it reports exactly what CheckTrace reports over the same
// records, stamped in scenario time. At speed 1 the scenario runs
// 200 times shorter so the test stays quick; the faster speeds run it
// as written: a 10-s leads-to whose trigger is held for 2 minutes.
func TestLiveMonitorMatchesCheckTrace(t *testing.T) {
	for _, speed := range []float64{1, 1000, clock.SpeedMax} {
		t.Run(clock.FormatSpeed(speed), func(t *testing.T) {
			unit := time.Second
			if speed == 1 {
				unit = 5 * time.Millisecond
			}
			tb := newTestbed(t, Options{TimeScale: speed, BrokerAddr: "none", RESTAddr: "none"})
			if s, ok := tb.Clock().(*clock.Scaled); ok {
				if at, armed := s.NextAt(); armed {
					t.Fatalf("a testbed with no property armed a timer at %v", at)
				}
			}
			for _, name := range []string{"O1", "O2"} {
				if err := tb.Run("Occupancy", name, map[string]any{"managed": false}); err != nil {
					t.Fatal(err)
				}
			}
			for _, name := range []string{"L1", "L2", "L3"} {
				if err := tb.Run("Lamp", name, nil); err != nil {
					t.Fatal(err)
				}
			}
			is := func(model, path string, v any) property.Condition {
				return property.Condition{{Model: model, Path: path, Op: property.Eq, Value: v}}
			}
			for _, p := range []*property.Property{
				{Name: "unanswered", Kind: property.LeadsTo, Within: 10 * unit,
					Trigger: is("O1", "triggered", true), Response: is("L1", "power.status", "on")},
				{Name: "answered", Kind: property.LeadsTo, Within: 600 * unit,
					Trigger: is("O2", "triggered", true), Response: is("L2", "power.status", "on")},
				{Name: "never", Kind: property.Never, Cond: is("L3", "power.status", "on")},
			} {
				if err := tb.AddProperty(p); err != nil {
					t.Fatal(err)
				}
			}
			// set edits a model and waits for its digi to log the
			// change: the trace, not the store, is what the checker reads.
			set := func(name string, patch map[string]any, path string, want any) {
				t.Helper()
				from := tb.Log.Len()
				if err := tb.Edit(name, patch); err != nil {
					t.Fatal(err)
				}
				if err := tb.WaitConverged(time.Hour, func() bool {
					logged := false
					tb.Log.From(from, func(r *trace.Record) {
						logged = logged || r.Kind == trace.KindAction && r.Name == name && r.Sets[path] == want
					})
					return logged
				}); err != nil {
					t.Fatalf("%s.%s = %v never logged", name, path, want)
				}
			}
			power := func(v string) map[string]any { return map[string]any{"power": map[string]any{"intent": v}} }

			set("O2", map[string]any{"triggered": true}, "triggered", true)
			set("L2", power("on"), "power.status", "on")
			set("L3", power("on"), "power.status", "on")
			set("L3", power("off"), "power.status", "off")
			set("L3", power("on"), "power.status", "on")
			set("O1", map[string]any{"triggered": true}, "triggered", true)
			clk := tb.Clock()
			if err := clock.SleepUntil(context.Background(), clk, clk.Now().Add(120*unit)); err != nil {
				t.Fatal(err)
			}
			set("O1", map[string]any{"triggered": false}, "triggered", false)

			if err := tb.WaitConverged(time.Hour, func() bool { return len(tb.Violations()) >= 3 }); err != nil {
				t.Fatalf("live violations: %+v", tb.Violations())
			}
			live := tb.Violations()
			offline, err := tb.CheckTraceRecords(tb.Log.Records())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(live, offline) {
				t.Fatalf("live %+v\noffline %+v", live, offline)
			}
			count := map[string]int{}
			for _, v := range live {
				count[v.Property]++
			}
			if count["unanswered"] != 1 || count["answered"] != 0 || count["never"] != 2 {
				t.Fatalf("violations per property %v: %+v", count, live)
			}
			var trigger time.Duration = -1
			for _, r := range tb.Log.Records() {
				if r.Kind == trace.KindAction && r.Name == "O1" && r.Sets["triggered"] == true {
					trigger = r.TS
					break
				}
			}
			for _, v := range live {
				if v.Property == "unanswered" && v.At != trigger+10*unit {
					t.Errorf("unanswered reported at %v, want its deadline %v", v.At, trigger+10*unit)
				}
			}
		})
	}
}
