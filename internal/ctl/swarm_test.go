package ctl

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSwarmOverHTTP drives a short closed-loop swarm run through the
// control API and checks the report round-trips with exact accounting.
func TestSwarmOverHTTP(t *testing.T) {
	_, cli := startServer(t, "")
	rep, err := cli.Swarm(SwarmRequest{
		Profile:     "closed",
		Devices:     30,
		PeriodSec:   0.05,
		DurationSec: 0.2,
		Workers:     2,
		QoS:         1,
		Subscribers: 2,
		Shards:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Published != 30*4 {
		t.Fatalf("published %d, want 30 devices × 4 periods", rep.Published)
	}
	if rep.Lost != 0 {
		t.Fatalf("lost %d of %d expected deliveries", rep.Lost, rep.Expected)
	}
	if rep.Shards != 2 {
		t.Fatalf("shards = %d, want 2", rep.Shards)
	}
	if len(rep.Placements) != 2 {
		t.Fatalf("placements = %v, want both worker pods", rep.Placements)
	}
}

// TestHealthzReadyzOverHTTP pins the probe endpoints: /healthz is
// liveness and always answers 200 while the daemon serves; /readyz
// tracks swarm shard health — 200 when no shard is down, 503 naming
// the down shards while a killed shard stays dead mid-run, and 200
// again once the run ends.
func TestHealthzReadyzOverHTTP(t *testing.T) {
	_, cli := startServer(t, "")
	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(cli.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	// Idle daemon: live and trivially ready. Both probes are JSON and
	// carry the build version plus the start timestamp.
	code, body := get("/healthz")
	var health struct {
		OK        bool   `json:"ok"`
		Version   string `json:"version"`
		StartedAt string `json:"started_at"`
	}
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d (%s), want 200", code, body)
	}
	if err := json.Unmarshal(body, &health); err != nil || !health.OK {
		t.Fatalf("GET /healthz body = %s (err %v), want ok:true", body, err)
	}
	if health.Version == "" || health.StartedAt == "" {
		t.Fatalf("GET /healthz body = %s, want version and started_at", body)
	}
	code, body = get("/readyz")
	if code != http.StatusOK {
		t.Fatalf("GET /readyz idle = %d (%s), want 200", code, body)
	}
	var ready struct {
		Ready     bool   `json:"ready"`
		Shards    int    `json:"shards"`
		Down      []int  `json:"down"`
		Version   string `json:"version"`
		StartedAt string `json:"started_at"`
	}
	if err := json.Unmarshal(body, &ready); err != nil || !ready.Ready {
		t.Fatalf("GET /readyz idle body = %s (err %v), want ready:true", body, err)
	}
	if ready.Version != health.Version || ready.StartedAt != health.StartedAt {
		t.Fatalf("probe build info disagrees: healthz %s vs readyz %s", body, body)
	}

	// A swarm run that loses shard 1 at 100ms and never revives it:
	// readiness must degrade to 503 for the rest of the run.
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	go func() {
		defer wg.Done()
		_, runErr = cli.Swarm(SwarmRequest{
			Profile:     "open",
			Devices:     40,
			Rate:        1500,
			DurationSec: 1.2,
			Workers:     2,
			QoS:         1,
			Subscribers: 1,
			Shards:      2,
			Kills:       []SwarmKill{{Shard: 1, AtSec: 0.1}},
		})
	}()
	sawDegraded := false
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		code, body := get("/readyz")
		if code == http.StatusServiceUnavailable {
			if err := json.Unmarshal(body, &ready); err != nil {
				t.Fatalf("degraded /readyz body %s: %v", body, err)
			}
			if ready.Ready || ready.Shards != 2 || len(ready.Down) != 1 || ready.Down[0] != 1 {
				t.Fatalf("degraded /readyz body = %s, want ready:false shards:2 down:[1]", body)
			}
			sawDegraded = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sawDegraded {
		t.Fatal("readyz never reported the killed shard")
	}
	// Liveness is unaffected by a dead shard.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("GET /healthz during degraded run = %d, want 200", code)
	}
	wg.Wait()
	if runErr != nil {
		t.Fatalf("swarm run failed: %v", runErr)
	}
	// The run is over: no active pool, trivially ready again.
	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("GET /readyz after run = %d (%s), want 200", code, body)
	}
}

// TestSwarmRejectsBadSpec pins error propagation over HTTP: a spec the
// generator cannot honour is a 400 naming the field.
func TestSwarmRejectsBadSpec(t *testing.T) {
	_, cli := startServer(t, "")
	for name, tc := range map[string]struct {
		req  SwarmRequest
		want string
	}{
		"bogus profile": {SwarmRequest{Profile: "sideways"}, "profile"},
		"qos 2":         {SwarmRequest{QoS: 2}, "qos"},
		"qos wraps":     {SwarmRequest{QoS: 256}, "qos"},
		"open too hot":  {SwarmRequest{Profile: "open", Devices: 10, Rate: 5000}, "raise -devices to at least 50"},
	} {
		data, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := cli.http().Post(cli.Base+"/ctl/swarm", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body) // a short body fails the check below
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: got %d %s, want a 400 naming %q", name, resp.StatusCode, body, tc.want)
		}
	}
}
