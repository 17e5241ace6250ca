package ctl

import (
	"archive/zip"
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/property"
	"repro/internal/trace"
	"repro/internal/vet"
)

// startServer builds a full testbed + control server + client, wired
// to a shared remote repo so push/pull round-trips can be tested.
func startServer(t *testing.T, remoteDir string) (*core.Testbed, *Client) {
	t.Helper()
	opts := core.Options{
		LocalRepoDir: filepath.Join(t.TempDir(), "repo"),
	}
	if remoteDir != "" {
		opts.RemoteRepoDir = remoteDir
	}
	tb, err := NewTestbed(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Stop)
	srv := &Server{TB: tb}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return tb, &Client{Base: "http://" + srv.Addr()}
}

func TestRunCheckStopOverHTTP(t *testing.T) {
	_, cli := startServer(t, "")
	if err := cli.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}
	doc, err := cli.Check("L1")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Type() != "Lamp" {
		t.Errorf("doc = %v", doc)
	}
	names, err := cli.List()
	if err != nil || len(names) != 1 {
		t.Errorf("names = %v, %v", names, err)
	}
	if err := cli.Stop("L1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Check("L1"); err == nil {
		t.Error("stopped digi still checkable")
	}
}

func TestRunErrorsPropagate(t *testing.T) {
	_, cli := startServer(t, "")
	if err := cli.Run("Bogus", "X", nil); err == nil {
		t.Error("bogus type accepted")
	}
	if err := cli.Stop("ghost"); err == nil {
		t.Error("stop of missing digi accepted")
	}
	if _, err := cli.Check("ghost"); err == nil {
		t.Error("check of missing digi accepted")
	}
}

func TestAttachEditOverHTTP(t *testing.T) {
	tb, cli := startServer(t, "")
	if err := cli.Run("Occupancy", "O1", nil); err != nil {
		t.Fatal(err)
	}
	if err := cli.Run("Room", "R1", map[string]any{"managed": false}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Attach("O1", "R1", false); err != nil {
		t.Fatal(err)
	}
	if err := cli.Edit("R1", map[string]any{"human_presence": true}); err != nil {
		t.Fatal(err)
	}
	if err := tb.WaitConverged(5*time.Second, func() bool {
		d, _ := tb.Check("O1")
		return d != nil && d.GetBool("triggered")
	}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Attach("O1", "R1", true); err != nil {
		t.Fatal(err)
	}
	d, _ := cli.Check("R1")
	if len(d.Attach()) != 0 {
		t.Errorf("attach list = %v", d.Attach())
	}
}

func TestWatchStreamOverHTTP(t *testing.T) {
	tb, cli := startServer(t, "")
	if err := cli.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var gens []uint64
	done := make(chan error, 1)
	go func() {
		done <- cli.Watch("L1", 2, func(gen uint64, doc model.Doc, deleted bool) {
			mu.Lock()
			gens = append(gens, gen)
			mu.Unlock()
		})
	}()
	// The stream only carries updates committed after the server-side
	// subscription exists, and there is no connect handshake — so keep
	// committing distinct edits until the stream has seen its two.
	deadline := time.After(5 * time.Second)
	level := 0.1
	for waiting := true; waiting; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			waiting = false
		case <-deadline:
			t.Fatal("watch stream never completed")
		case <-time.After(20 * time.Millisecond):
			tb.Edit("L1", map[string]any{"intensity": map[string]any{"intent": level}})
			level += 0.01
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gens) != 2 {
		t.Errorf("gens = %v", gens)
	}
	if gens[0] >= gens[1] {
		t.Errorf("generations not increasing: %v", gens)
	}
}

func TestShareWorkflowOverHTTP(t *testing.T) {
	remote := t.TempDir()
	_, dev := startServer(t, remote)
	other, reproducer := startServer(t, remote)

	// Developer: build, commit, push setup and trace.
	if err := dev.Run("Occupancy", "O1", nil); err != nil {
		t.Fatal(err)
	}
	if err := dev.Run("Room", "R1", map[string]any{"managed": false}); err != nil {
		t.Fatal(err)
	}
	if err := dev.Attach("O1", "R1", false); err != nil {
		t.Fatal(err)
	}
	if err := dev.Edit("R1", map[string]any{"human_presence": true}); err != nil {
		t.Fatal(err)
	}
	version, err := dev.Commit("R1", false, false)
	if err != nil {
		t.Fatal(err)
	}
	if version != "v1" {
		t.Errorf("version = %q", version)
	}
	if err := dev.Push("R1"); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.PushTrace("r1-trace"); err != nil {
		t.Fatal(err)
	}
	// Kind commit via -k flag path.
	if v, err := dev.Commit("Lamp", true, false); err != nil || v == "" {
		t.Errorf("kind commit: %q %v", v, err)
	}

	// Reproducer: pull, recreate, replay.
	if err := reproducer.Pull("R1"); err != nil {
		t.Fatal(err)
	}
	if err := reproducer.Recreate("R1", ""); err != nil {
		t.Fatal(err)
	}
	names, _ := reproducer.List()
	if len(names) != 2 {
		t.Fatalf("recreated models = %v", names)
	}
	n, err := reproducer.Replay("r1-trace", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("replayed 0 records")
	}
	if err := other.WaitConverged(5*time.Second, func() bool {
		d, _ := other.Check("O1")
		return d != nil && d.GetBool("triggered")
	}); err != nil {
		t.Fatal("replay did not reproduce the recorded state")
	}
}

func TestVetOverHTTP(t *testing.T) {
	_, cli := startServer(t, "")
	if err := cli.Run("Occupancy", "O1", nil); err != nil {
		t.Fatal(err)
	}
	if err := cli.Run("Room", "R1", map[string]any{"managed": false}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Attach("O1", "R1", false); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Commit("R1", false, false); err != nil {
		t.Fatal(err)
	}
	results, err := cli.Vet("R1", "", false)
	if err != nil {
		t.Fatal(err)
	}
	diags, ok := results["R1"]
	if !ok {
		t.Fatalf("results = %v", results)
	}
	if vet.HasErrors(diags) {
		t.Errorf("committed scene not vet-clean: %s", vet.Text(diags))
	}
	// --all covers every committed setup.
	all, err := cli.Vet("", "", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := all["R1"]; !ok {
		t.Errorf("vet --all missing R1: %v", all)
	}
	if _, err := cli.Vet("no-such-setup", "", false); err == nil {
		t.Error("vet of missing setup accepted")
	}
}

func TestTraceDownloadOverHTTP(t *testing.T) {
	_, cli := startServer(t, "")
	if err := cli.Run("Occupancy", "O1", map[string]any{"interval_ms": int64(20)}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs, raw, err := cli.DownloadTrace()
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 {
			t.Fatal("empty archive")
		}
		if len(recs) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no records in trace")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestStatusOverHTTP(t *testing.T) {
	_, cli := startServer(t, "")
	cli.Run("Lamp", "L1", nil)
	st, err := cli.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st["models"] != float64(1) {
		t.Errorf("status = %v", st)
	}
	if st["broker_addr"] == "" || st["rest_addr"] == "" {
		t.Errorf("addresses missing: %v", st)
	}
}

func TestControlAPIErrorPaths(t *testing.T) {
	_, cli := startServer(t, "")
	// Commit without a remote is fine (local repo exists), but pushing
	// is not.
	if err := cli.Push("nothing"); err == nil {
		t.Error("push without remote accepted")
	}
	if err := cli.Pull("nothing"); err == nil {
		t.Error("pull without remote accepted")
	}
	if err := cli.Recreate("nothing", ""); err == nil {
		t.Error("recreate of missing setup accepted")
	}
	if _, err := cli.Replay("nothing", "", 0); err == nil {
		t.Error("replay of missing trace accepted")
	}
	if _, err := cli.Commit("NoSuchScene", false, false); err == nil {
		t.Error("commit of missing scene accepted")
	}
	if err := cli.Attach("a", "b", false); err == nil {
		t.Error("attach of missing digis accepted")
	}
	if err := cli.Edit("ghost", map[string]any{"a": 1}); err == nil {
		t.Error("edit of missing digi accepted")
	}
	if err := cli.Watch("ghost", 1, nil); err == nil {
		t.Error("watch of missing digi accepted")
	}
}

// TestInProcessClient: the in-process transport serves the handler
// and survives a timeout override.
func TestInProcessClient(t *testing.T) {
	tb, _ := startServer(t, "")
	cli := InProcess((&Server{TB: tb}).Handler())
	if err := cli.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}
	sized := cli.WithTimeout(time.Minute)
	if sized.HTTP.Transport != cli.HTTP.Transport || sized.HTTP.Timeout != 0 {
		t.Errorf("WithTimeout on an in-process client: transport kept %v, timeout %v; want kept, none",
			sized.HTTP.Transport == cli.HTTP.Transport, sized.HTTP.Timeout)
	}
	if names, err := sized.List(); err != nil || len(names) != 1 {
		t.Errorf("list through the sized client = %v, %v", names, err)
	}
	if d := (&Client{Base: "http://daemon"}).WithTimeout(time.Minute).HTTP.Timeout; d != time.Minute {
		t.Errorf("WithTimeout on a daemon client: timeout %v, want 1m", d)
	}
}

func TestControlAPIRejectsBadJSON(t *testing.T) {
	_, cli := startServer(t, "")
	resp, err := cli.http().Post(cli.Base+"/ctl/run", "application/json",
		strings.NewReader("this is not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestCheckTraceOverHTTP(t *testing.T) {
	remote := t.TempDir()
	tb, cli := startServer(t, remote)
	if err := cli.Run("Lamp", "L1", nil); err != nil {
		t.Fatal(err)
	}
	if err := cli.Run("Occupancy", "O1", map[string]any{"managed": false}); err != nil {
		t.Fatal(err)
	}
	// Register the §3.3 property, then record a run that violates it.
	if err := tb.AddProperty(&property.Property{
		Name: "lamp-off-when-unoccupied",
		Kind: property.Never,
		Cond: property.Condition{
			{Model: "O1", Path: "triggered", Op: property.Eq, Value: false},
			{Model: "L1", Path: "power.status", Op: property.Eq, Value: "on"},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Edit("L1", map[string]any{"power": map[string]any{"intent": "on"}}); err != nil {
		t.Fatal(err)
	}
	// Wait on the trace, not the store: L1's reconciler logs the action
	// only after it has observed the commit, and the pushed trace has to
	// hold it.
	if err := tb.WaitConverged(5*time.Second, func() bool {
		for _, r := range tb.Log.RecordsFor("L1") {
			if r.Kind == trace.KindAction && r.Sets["power.status"] == "on" {
				return true
			}
		}
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.PushTrace("bad-run"); err != nil {
		t.Fatal(err)
	}
	n, violations, err := cli.CheckTrace("bad-run", "")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no records checked")
	}
	if len(violations) != 1 || violations[0]["property"] != "lamp-off-when-unoccupied" {
		t.Fatalf("violations = %v", violations)
	}
	if _, _, err := cli.CheckTrace("no-such-trace", ""); err == nil {
		t.Error("missing trace accepted")
	}
}

// A live trace archive from GET /ctl/trace carries a digest that
// re-computing it from the archive's own trace.jsonl reproduces.
func TestTraceDownloadCarriesDigest(t *testing.T) {
	_, cli := startServer(t, "")
	if err := cli.Run("Occupancy", "O1", map[string]any{"interval_ms": int64(20), "trigger_prob": 0.5}); err != nil {
		t.Fatal(err)
	}
	var raw []byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs, data, err := cli.DownloadTrace()
		if err != nil {
			t.Fatal(err)
		}
		if raw = data; len(recs) >= 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d records in trace", len(recs))
		}
		time.Sleep(20 * time.Millisecond)
	}
	zr, err := zip.NewReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		files[f.Name], _ = io.ReadAll(rc)
		rc.Close()
	}
	if _, ok := files["scenario.yaml"]; ok {
		t.Error("a live trace archive carries a scenario")
	}
	var stored string
	for _, ln := range strings.Split(string(files["meta.txt"]), "\n") {
		if v, ok := strings.CutPrefix(ln, "digest: "); ok {
			stored = v
		}
	}
	recs, err := trace.ReadJSONL(bytes.NewReader(files["trace.jsonl"]))
	if err != nil {
		t.Fatal(err)
	}
	got, err := trace.Digest(trace.Normalize(recs))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stored, "sha256:") || got != stored {
		t.Fatalf("meta.txt digest %q, trace.jsonl hashes to %q", stored, got)
	}
}
