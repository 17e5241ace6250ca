package ctl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/chaos"
	"repro/internal/model"
	"repro/internal/profile"
	"repro/internal/replay"
	"repro/internal/swarm"
	"repro/internal/trace"
	"repro/internal/vet"
)

// Client is the dbox-side client of the control API.
type Client struct {
	Base string
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 60 * time.Second}
}

// WithTimeout returns a copy of c whose requests time out after d, for
// calls that hold the connection for a whole run. The copy keeps c's
// transport, so an in-process client never falls back to dialling
// Base, and a client without a timeout (InProcess) keeps none.
func (c *Client) WithTimeout(d time.Duration) *Client {
	hc := http.Client{Timeout: d}
	if c.HTTP != nil {
		hc = *c.HTTP
		if hc.Timeout > 0 {
			hc.Timeout = d
		}
	}
	return &Client{Base: c.Base, HTTP: &hc}
}

func (c *Client) post(path string, req, resp any) error {
	data, err := json.Marshal(req)
	if err != nil {
		return err
	}
	httpResp, err := c.http().Post(c.Base+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	return readReply(path, httpResp, resp)
}

func (c *Client) get(path string, resp any) error {
	httpResp, err := c.http().Get(c.Base + path)
	if err != nil {
		return err
	}
	return readReply(path, httpResp, resp)
}

// readReply is the response tail shared by post and get: a non-200
// reply becomes the daemon's error message, a 200 one is decoded into
// resp (kept raw when resp is a *[]byte).
func readReply(path string, httpResp *http.Response, resp any) error {
	defer httpResp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(httpResp.Body, 32<<20))
	if err != nil {
		return err
	}
	if httpResp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			return fmt.Errorf("dboxd: %s", e.Error)
		}
		return fmt.Errorf("dboxd: %s returned %d", path, httpResp.StatusCode)
	}
	if raw, ok := resp.(*[]byte); ok {
		*raw = body
		return nil
	}
	if resp != nil {
		return json.Unmarshal(body, resp)
	}
	return nil
}

// Run issues dbox run.
func (c *Client) Run(typ, name string, config map[string]any) error {
	return c.post("/ctl/run", RunRequest{Type: typ, Name: name, Config: config}, nil)
}

// RunScenario issues the scenario form of dbox run: execute a whole
// scenario on the daemon at the given speed ("max", "100", …; empty =
// max). The HTTP timeout must cover the run's wall duration —
// scenario duration divided by speed — so callers size it with
// WithTimeout for slow speeds.
func (c *Client) RunScenario(sc *replay.Scenario, speed string) (*RunScenarioResponse, error) {
	var resp RunScenarioResponse
	if err := c.post("/ctl/run", RunRequest{Scenario: sc.Value(), Speed: speed}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stop issues dbox stop.
func (c *Client) Stop(name string) error {
	return c.post("/ctl/stop", NameRequest{Name: name}, nil)
}

// Check issues dbox check.
func (c *Client) Check(name string) (model.Doc, error) {
	var m map[string]any
	if err := c.get("/ctl/check/"+name, &m); err != nil {
		return nil, err
	}
	return model.Doc(m), nil
}

// List returns all model names.
func (c *Client) List() ([]string, error) {
	var resp struct {
		Models []string `json:"models"`
	}
	if err := c.get("/ctl/list", &resp); err != nil {
		return nil, err
	}
	return resp.Models, nil
}

// Status returns the daemon status map.
func (c *Client) Status() (map[string]any, error) {
	var m map[string]any
	if err := c.get("/ctl/status", &m); err != nil {
		return nil, err
	}
	return m, nil
}

// Attach issues dbox attach (or detach).
func (c *Client) Attach(child, parent string, detach bool) error {
	return c.post("/ctl/attach", AttachRequest{Child: child, Parent: parent, Detach: detach}, nil)
}

// Edit issues dbox edit.
func (c *Client) Edit(name string, patch map[string]any) error {
	return c.post("/ctl/edit", EditRequest{Name: name, Patch: patch}, nil)
}

// Commit issues dbox commit; kind selects type vs scene commit; force
// bypasses the vet pre-commit gate.
func (c *Client) Commit(name string, kind, force bool) (string, error) {
	var resp struct {
		Version string `json:"version"`
	}
	if err := c.post("/ctl/commit", CommitRequest{Name: name, Kind: kind, Force: force}, &resp); err != nil {
		return "", err
	}
	return resp.Version, nil
}

// Vet analyzes one committed setup (all=false) or every committed
// setup (all=true), returning diagnostics keyed by setup name.
func (c *Client) Vet(name, version string, all bool) (map[string][]vet.Diagnostic, error) {
	var resp struct {
		Results map[string][]vet.Diagnostic `json:"results"`
	}
	if err := c.post("/ctl/vet", VetRequest{Name: name, Version: version, All: all}, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Push issues dbox push.
func (c *Client) Push(name string) error {
	return c.post("/ctl/push", ShareRequest{Name: name}, nil)
}

// Pull issues dbox pull.
func (c *Client) Pull(name string) error {
	return c.post("/ctl/pull", ShareRequest{Name: name}, nil)
}

// Recreate instantiates a pulled setup.
func (c *Client) Recreate(name, version string) error {
	return c.post("/ctl/recreate", RecreateRequest{Name: name, Version: version}, nil)
}

// ChaosRun issues dbox chaos run: apply a fault plan and wait for the
// engine's report. The HTTP timeout must cover the plan's duration;
// callers with long plans should extend it with WithTimeout.
func (c *Client) ChaosRun(p *chaos.Plan) (*chaos.Report, error) {
	var rep chaos.Report
	if err := c.post("/ctl/chaos", ChaosRequest{Plan: p.Value()}, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Swarm issues dbox swarm: run a swarm load session on the
// daemon and return its report. Like ChaosRun, the HTTP timeout must
// cover the run's duration; callers size it with WithTimeout.
func (c *Client) Swarm(req SwarmRequest) (*swarm.Report, error) {
	var rep swarm.Report
	if err := c.post("/ctl/swarm", req, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Capture issues dbox capture: the daemon records traffic
// into a fitted device profile and returns it with the observation
// accounting.
func (c *Client) Capture(req CaptureRequest) (*profile.Profile, *CaptureResponse, error) {
	var resp CaptureResponse
	if err := c.post("/ctl/capture", req, &resp); err != nil {
		return nil, nil, err
	}
	p, err := profile.FromValue(resp.Profile)
	if err != nil {
		return nil, nil, fmt.Errorf("ctl: capture response profile: %w", err)
	}
	return p, &resp, nil
}

// Replay issues dbox replay against a shared trace.
func (c *Client) Replay(traceName, version string, speed float64) (int, error) {
	var resp struct {
		Records int `json:"records"`
	}
	err := c.post("/ctl/replay", ReplayRequest{Trace: traceName, Version: version, Speed: speed}, &resp)
	return resp.Records, err
}

// Record issues dbox record: execute a scenario deterministically on
// the daemon and return the run's digest (plus the replay archive
// when withArchive is set).
func (c *Client) Record(sc *replay.Scenario, withArchive bool) (*RecordResponse, error) {
	var resp RecordResponse
	if err := c.post("/ctl/record", RecordRequest{Scenario: sc.Value(), Archive: withArchive}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ReplayScenario issues the scenario form of dbox replay: re-execute a
// recorded scenario on the daemon's deterministic engine, verifying
// against the expected digest when verify is set.
func (c *Client) ReplayScenario(sc *replay.Scenario, digest string, verify bool) (*RecordResponse, error) {
	var resp RecordResponse
	req := ReplayRequest{Scenario: sc.Value(), Digest: digest, Verify: verify}
	if err := c.post("/ctl/replay", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CheckTrace evaluates registered properties against a shared trace,
// returning (property, detail) pairs per violation.
func (c *Client) CheckTrace(traceName, version string) (records int, violations []map[string]any, err error) {
	var resp struct {
		Records    int              `json:"records"`
		Violations []map[string]any `json:"violations"`
	}
	err = c.post("/ctl/checktrace", CheckTraceRequest{Trace: traceName, Version: version}, &resp)
	return resp.Records, resp.Violations, err
}

// DownloadTrace fetches the daemon's trace archive.
func (c *Client) DownloadTrace() ([]trace.Record, []byte, error) {
	var raw []byte
	if err := c.get("/ctl/trace", &raw); err != nil {
		return nil, nil, err
	}
	ar, err := trace.ParseArchiveBytes(raw)
	if err != nil {
		return nil, nil, err
	}
	return ar.Records, raw, nil
}

// PushTrace publishes the daemon's current trace under a name.
func (c *Client) PushTrace(name string) (string, error) {
	var resp struct {
		Version string `json:"version"`
	}
	if err := c.post("/ctl/trace/push", ShareRequest{Name: name}, &resp); err != nil {
		return "", err
	}
	return resp.Version, nil
}

// Watch streams up to max updates of a model, invoking fn per update.
func (c *Client) Watch(name string, max int, fn func(gen uint64, doc model.Doc, deleted bool)) error {
	url := fmt.Sprintf("%s/ctl/watch/%s?max=%d", c.Base, name, max)
	resp, err := c.http().Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dboxd: watch returned %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var u struct {
			Gen     uint64         `json:"gen"`
			Deleted bool           `json:"deleted"`
			Doc     map[string]any `json:"doc"`
		}
		if err := dec.Decode(&u); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		fn(u.Gen, model.Doc(u.Doc), u.Deleted)
	}
}
