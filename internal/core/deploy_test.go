package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/kube"
)

// A digi that can never become ready fails its Run within ReadyTimeout
// plus the wait's grace, naming the digi.
func TestDeployNeverReadyFails(t *testing.T) {
	const timeout = 200 * time.Millisecond
	for _, tc := range []struct {
		name  string
		setup func(tb *Testbed)
	}{
		{"no node capacity", func(tb *Testbed) {
			if err := tb.Run("Lamp", "L0", nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"image factory error", func(tb *Testbed) {
			tb.Cluster.RegisterImage("digi", func(map[string]any) (kube.Workload, error) {
				return nil, errors.New("pull failed")
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := newTestbed(t, Options{
				BrokerAddr: "none", RESTAddr: "none", ReadyTimeout: timeout,
				Nodes: []NodeSpec{{Name: "tiny", Capacity: 1, Zone: "local"}},
			})
			tc.setup(tb)
			start := time.Now()
			err := tb.Run("Lamp", "L1", nil)
			if elapsed := time.Since(start); elapsed > timeout+2*time.Second {
				t.Errorf("Run failed after %v, want within %v plus grace", elapsed, timeout)
			}
			if err == nil || !strings.Contains(err.Error(), "L1") {
				t.Fatalf("Run = %v, want an error naming L1", err)
			}
		})
	}
}

// BenchmarkDeployScale deploys mocks into an otherwise idle testbed and
// reports the mean Run cost per digi. Deploy is O(1) per digi when the
// 4,000-mock figure matches the 1,000-mock one. It measures wall time,
// so it is run by hand:
//
//	go test -run '^$' -bench DeployScale -benchtime 3x ./internal/core
func BenchmarkDeployScale(b *testing.B) {
	for _, mocks := range []int{1000, 4000} {
		b.Run(fmt.Sprintf("mocks=%d", mocks), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tb, err := New(Options{BrokerAddr: "none", RESTAddr: "none",
					Nodes: []NodeSpec{{Name: "a", Capacity: mocks, Zone: "local"}, {Name: "b", Capacity: mocks, Zone: "local"}}})
				if err != nil {
					b.Fatal(err)
				}
				if err := device.RegisterAll(tb.Registry); err != nil {
					b.Fatal(err)
				}
				if err := tb.Start(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				for m := 0; m < mocks; m++ {
					if err := tb.Run("Occupancy", fmt.Sprintf("o%05d", m), map[string]any{"managed": false}); err != nil {
						b.Fatal(err)
					}
				}
				total += time.Since(start)
				b.StopTimer()
				tb.Stop()
				b.StartTimer()
			}
			b.ReportMetric(float64(total.Microseconds())/float64(b.N*mocks), "us/digi")
		})
	}
}
