package swarm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/clock"
	"repro/internal/obs"
)

// laneRun is what one profiled load run counts: every figure that sums
// per-lane stripes, the delivered message set, and the tracer's span
// and latency-sample totals.
type laneRun struct {
	PublishesIn, MessagesOut, BridgeForwards int64
	Delivered, Lost, Shed                    int64
	Digest                                   string
	SpansStarted, SpansCompleted             float64
	E2ECounts                                map[string]uint64
}

// TestLanesCountAlikeAtAnyGOMAXPROCS runs one profiled load, four
// workers on four lanes across four shards, at GOMAXPROCS 1, 2 and 4.
// Each lane's writes land in its own stripe, and the stripes sum to
// the same totals however the workers interleave: the pool's stats,
// the report's delivery accounting, the per-topic delivery digest, and
// the tracer's spans and latency samples (which sample on each lane's
// own per-broker sequence) are identical across the three runs.
func TestLanesCountAlikeAtAnyGOMAXPROCS(t *testing.T) {
	var runs []laneRun
	for _, procs := range []int{1, 2, 4} {
		runs = append(runs, runLanes(t, procs))
	}
	if runs[0].PublishesIn == 0 || runs[0].BridgeForwards == 0 || runs[0].SpansCompleted == 0 {
		t.Fatalf("run exercised nothing: %+v", runs[0])
	}
	t.Logf("GOMAXPROCS=1: %+v", runs[0])
	if runs[0].Lost != 0 || runs[0].Shed != 0 {
		t.Fatalf("GOMAXPROCS=1: lost %d, shed %d", runs[0].Lost, runs[0].Shed)
	}
	for i, procs := range []int{2, 4} {
		if !reflect.DeepEqual(runs[i+1], runs[0]) {
			t.Errorf("GOMAXPROCS=%d counted\n%+v\nGOMAXPROCS=1 counted\n%+v", procs, runs[i+1], runs[0])
		}
	}
}

func runLanes(t *testing.T, procs int) laneRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	clk := clock.NewScaled(clock.SpeedMax, nil)
	go clk.Drive()
	defer clk.Stop()
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg)
	tracer.SetClock(clk)
	pool := NewPool(PoolOptions{Shards: 4, Obs: reg, Tracer: tracer, Clock: clk})
	defer pool.Close()

	spec := profiledSpec()
	spec.Duration, spec.Workers, spec.QoS, spec.Subs = 8*time.Second, 4, 1, 2
	sess, err := NewSession(pool, spec, reg)
	if err != nil {
		t.Fatal(err)
	}
	sess.SetClock(clk)
	var mu sync.Mutex
	chains := map[string]hash.Hash{}
	filter := "swarm/+/status"
	if err := pool.Subscribe("digest", filter, 1, func(m broker.Message) {
		mu.Lock()
		defer mu.Unlock()
		h := chains[m.Topic]
		if h == nil {
			h = sha256.New()
			chains[m.Topic] = h
		}
		h.Write(m.Payload)
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < sess.Workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sess.RunWorker(context.Background(), w); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	rep := sess.Finish(time.Minute)
	pool.Unsubscribe("digest", filter)
	stats := pool.Stats()

	topics := make([]string, 0, len(chains))
	for topic := range chains {
		topics = append(topics, topic)
	}
	sort.Strings(topics)
	fold := sha256.New()
	for _, topic := range topics {
		fold.Write([]byte(topic))
		fold.Write(chains[topic].Sum(nil))
	}
	run := laneRun{
		PublishesIn: stats.PublishesIn, MessagesOut: stats.MessagesOut, BridgeForwards: stats.BridgeForwards,
		Delivered: rep.Delivered, Lost: rep.Lost, Shed: stats.Shed,
		Digest:         hex.EncodeToString(fold.Sum(nil)),
		SpansStarted:   reg.Value("digibox_spans_started_total"),
		SpansCompleted: reg.Value("digibox_spans_completed_total"),
		E2ECounts:      map[string]uint64{},
	}
	snap := reg.Snapshot()
	for _, name := range []string{"digibox_e2e_latency_seconds", obs.E2ETopicLatencyName} {
		for _, m := range snap.Family(name).Metrics {
			run.E2ECounts[name+"/"+m.LabelValues[0]] = m.Count
		}
	}
	return run
}
