package rest

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/trace"
)

// Model fetches a full model document.
func (c *Client) Model(name string) (model.Doc, error) {
	resp, err := c.http().Get(c.Base + "/v1/models/" + name)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m, err := decodeMap(resp)
	if err != nil {
		return nil, err
	}
	return model.Doc(m), nil
}

// List returns all model names.
func (c *Client) List() ([]string, error) {
	resp, err := c.http().Get(c.Base + "/v1/models")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m, err := decodeMap(resp)
	if err != nil {
		return nil, err
	}
	raw, _ := m["models"].([]any)
	out := make([]string, 0, len(raw))
	for _, v := range raw {
		if s, ok := v.(string); ok {
			out = append(out, s)
		}
	}
	return out, nil
}

// Watch long-polls for a change after gen.
func (c *Client) Watch(name string, gen uint64, timeout time.Duration) (model.Doc, uint64, error) {
	url := fmt.Sprintf("%s/v1/models/%s/watch?gen=%d&timeout_ms=%d",
		c.Base, name, gen, timeout.Milliseconds())
	resp, err := c.http().Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("rest: watch %s: status %d", name, resp.StatusCode)
	}
	newGen, _ := strconv.ParseUint(resp.Header.Get("X-Digibox-Generation"), 10, 64)
	m, err := decodeMap(resp)
	if err != nil {
		return nil, 0, err
	}
	return model.Doc(m), newGen, nil
}

func newGateway(t *testing.T) (*Gateway, *model.Store) {
	t.Helper()
	store := model.NewStore()
	lamp := model.Doc{}
	lamp.SetMeta(model.Meta{Type: "Lamp", Version: "v1", Name: "L1", Managed: true})
	lamp.Set("power", map[string]any{"intent": "off", "status": "off"})
	lamp.Set("intensity", map[string]any{"intent": 0.2, "status": 0.0})
	lamp.Set("note", "plain field")
	if err := store.Create(lamp); err != nil {
		t.Fatal(err)
	}
	return &Gateway{Store: store, Log: trace.NewLog()}, store
}

func serve(t *testing.T, g *Gateway) *Client {
	t.Helper()
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return &Client{Base: srv.URL, HTTP: srv.Client()}
}

func TestGetStatusElidesMetaAndIntent(t *testing.T) {
	g, _ := newGateway(t)
	c := serve(t, g)
	status, err := c.Status("L1")
	if err != nil {
		t.Fatal(err)
	}
	if _, has := status["meta"]; has {
		t.Error("status leaked meta")
	}
	if status["power"] != "off" {
		t.Errorf("power = %v, want flattened status", status["power"])
	}
	if status["note"] != "plain field" {
		t.Errorf("note = %v", status["note"])
	}
}

func TestGetModelFull(t *testing.T) {
	g, _ := newGateway(t)
	c := serve(t, g)
	doc, err := c.Model("L1")
	if err != nil {
		t.Fatal(err)
	}
	if doc.Name() != "L1" || doc.Type() != "Lamp" {
		t.Errorf("doc = %v", doc)
	}
	if v, _ := doc.Get("power.intent"); v != "off" {
		t.Errorf("power.intent = %v", v)
	}
}

func TestPatchSetsIntent(t *testing.T) {
	g, store := newGateway(t)
	c := serve(t, g)
	if err := c.Patch("L1", map[string]any{"power": map[string]any{"intent": "on"}}); err != nil {
		t.Fatal(err)
	}
	d, _, _ := store.Get("L1")
	if v, _ := d.Get("power.intent"); v != "on" {
		t.Errorf("power.intent = %v", v)
	}
	// Message logged.
	found := false
	for _, r := range g.Log.Records() {
		if r.Kind == trace.KindMessage && r.Name == "L1" && r.Direction == "recv" {
			found = true
		}
	}
	if !found {
		t.Error("patch not logged")
	}
}

func TestNotFoundAndBadRequests(t *testing.T) {
	g, _ := newGateway(t)
	c := serve(t, g)
	if _, err := c.Status("ghost"); err == nil {
		t.Error("missing model status succeeded")
	}
	if err := c.Patch("ghost", map[string]any{"a": 1}); err == nil {
		t.Error("missing model patch succeeded")
	}
	// Raw invalid JSON patch.
	req, _ := http.NewRequest(http.MethodPatch, c.Base+"/v1/models/L1", strings.NewReader("not json"))
	resp, err := c.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid patch status = %d", resp.StatusCode)
	}
}

func TestList(t *testing.T) {
	g, store := newGateway(t)
	fan := model.Doc{}
	fan.SetMeta(model.Meta{Type: "Fan", Name: "F1"})
	store.Create(fan)
	c := serve(t, g)
	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "F1" || names[1] != "L1" {
		t.Errorf("names = %v", names)
	}
}

func TestWatchLongPoll(t *testing.T) {
	g, store := newGateway(t)
	c := serve(t, g)
	_, gen, _ := store.Get("L1")

	var wg sync.WaitGroup
	wg.Add(1)
	var got model.Doc
	var newGen uint64
	var watchErr error
	go func() {
		defer wg.Done()
		got, newGen, watchErr = c.Watch("L1", gen, 5*time.Second)
	}()
	//dbox:allow sleepytest -- lets the long-poll park before the patch; the generation argument keeps the result correct either way
	time.Sleep(50 * time.Millisecond)
	store.Patch("L1", map[string]any{"power": map[string]any{"status": "on"}})
	wg.Wait()
	if watchErr != nil {
		t.Fatal(watchErr)
	}
	if newGen <= gen {
		t.Errorf("gen = %d, want > %d", newGen, gen)
	}
	if v, _ := got.Get("power.status"); v != "on" {
		t.Errorf("watched doc stale: %v", v)
	}
}

func TestWatchTimesOutWithCurrentDoc(t *testing.T) {
	g, store := newGateway(t)
	c := serve(t, g)
	_, gen, _ := store.Get("L1")
	start := time.Now()
	doc, newGen, err := c.Watch("L1", gen, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Errorf("returned too early: %v", elapsed)
	}
	if newGen != gen || doc.Name() != "L1" {
		t.Errorf("gen=%d doc=%v", newGen, doc)
	}
}

func TestWatchImmediateWhenBehind(t *testing.T) {
	g, store := newGateway(t)
	c := serve(t, g)
	store.Patch("L1", map[string]any{"x": 1})
	start := time.Now()
	_, newGen, err := c.Watch("L1", 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Error("watch with stale gen should return immediately")
	}
	if newGen == 0 {
		t.Error("gen not reported")
	}
}

func TestDelayInjection(t *testing.T) {
	g, _ := newGateway(t)
	g.Delay = func(name string) time.Duration { return 25 * time.Millisecond }
	c := serve(t, g)
	start := time.Now()
	if _, err := c.Status("L1"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("request took %v, want >= 50ms (2x one-way delay)", elapsed)
	}
}

// The zone delay is simulated network time on the testbed clock: a
// delayed GET returns only once that clock has moved 2·d.
func TestDelayRunsOnTheTestbedClock(t *testing.T) {
	g, _ := newGateway(t)
	v := clock.NewVirtual()
	g.Clock = v
	g.Delay = func(name string) time.Duration { return 25 * time.Millisecond }
	c := serve(t, g)
	done := make(chan error, 1)
	go func() {
		_, err := c.Status("L1")
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	at, armed := v.NextAt()
	for ; !armed; at, armed = v.NextAt() {
		if time.Now().After(deadline) {
			t.Fatal("the delayed GET armed no wait on the testbed clock")
		}
		runtime.Gosched()
	}
	if want := clock.Epoch.Add(50 * time.Millisecond); !at.Equal(want) {
		t.Fatalf("the GET waits until %v, want %v", at, want)
	}
	if v.Step(at.Add(-time.Nanosecond)) {
		t.Fatal("a timer fired before 2·d")
	}
	select {
	case err := <-done:
		t.Fatalf("the GET returned before the clock moved 2·d (err %v)", err)
	default:
	}
	v.Step(at)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestListenAndServe(t *testing.T) {
	g, _ := newGateway(t)
	if err := g.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Addr() == "" {
		t.Fatal("no addr")
	}
	c := &Client{Base: "http://" + g.Addr()}
	if _, err := c.Status("L1"); err != nil {
		t.Fatal(err)
	}
}

func TestGenerationHeader(t *testing.T) {
	g, store := newGateway(t)
	srv := httptest.NewServer(g.Handler())
	defer srv.Close()
	_, gen, _ := store.Get("L1")
	resp, err := http.Get(srv.URL + "/v1/models/L1/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Digibox-Generation"); got == "" || got == "0" {
		t.Errorf("generation header = %q (store gen %d)", got, gen)
	}
}

// A PATCH body is logged as its payload, and JSON replaces bytes that
// are not UTF-8 with U+FFFD when it decodes a string. The logged
// payload holds the replacement already, so the records read back from
// the trace archive hash to the digest the log was written with.
func TestPatchWithInvalidUTF8StaysArchivable(t *testing.T) {
	g, _ := newGateway(t)
	c := serve(t, g)
	req, _ := http.NewRequest(http.MethodPatch, c.Base+"/v1/models/L1", strings.NewReader("{\"note\":\"caf\xe9\"}"))
	resp, err := c.HTTP.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	data, err := g.Log.ArchiveBytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ParseArchiveBytes(data); err != nil {
		t.Fatalf("the log's own archive is refused: %v", err)
	}
}
