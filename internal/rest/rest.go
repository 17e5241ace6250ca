// Package rest implements Digibox's REST device gateway: the HTTP
// face that applications under test use to read mock status and send
// commands, alongside MQTT (Fig. 2). The paper's §4 microbenchmark —
// "the time it takes for a REST GET to return a mock's status" — is
// measured against this gateway.
//
// The gateway serves models from the testbed's store. When a Delay
// function is configured, each request waits out the simulated network
// round-trip between the gateway's node and the node running the
// mock's pod on the testbed clock, which is how the two-EC2-instance
// deployment point is reproduced in-process.
package rest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/model"
	"repro/internal/trace"
)

// Gateway is the REST device gateway.
type Gateway struct {
	Store *model.Store
	// Log, when non-nil, records request/response messages.
	Log *trace.Log
	// Delay, when non-nil, returns the simulated one-way network delay
	// to the named mock; the gateway waits twice that per request
	// (request + response legs) on Clock, the wall clock when nil.
	Delay func(name string) time.Duration
	Clock clock.Clock

	server   *http.Server
	listener net.Listener
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// Handler returns the gateway's HTTP handler.
//
//	GET    /v1/models               list model names
//	GET    /v1/models/{name}        full model document
//	GET    /v1/models/{name}/status status fields only (the benched path)
//	PATCH  /v1/models/{name}        JSON merge-patch (e.g. set intents)
//	GET    /v1/models/{name}/watch?gen=N&timeout_ms=M  long-poll
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/models", g.handleList)
	mux.HandleFunc("GET /v1/models/{name}", g.handleGet)
	mux.HandleFunc("GET /v1/models/{name}/status", g.handleStatus)
	mux.HandleFunc("PATCH /v1/models/{name}", g.handlePatch)
	mux.HandleFunc("GET /v1/models/{name}/watch", g.handleWatch)
	return mux
}

// ListenAndServe binds addr and serves in the background.
func (g *Gateway) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	g.listener = ln
	g.server = &http.Server{Handler: g.Handler()}
	go g.server.Serve(ln)
	return nil
}

// Addr returns the bound address ("" before ListenAndServe).
func (g *Gateway) Addr() string {
	if g.listener == nil {
		return ""
	}
	return g.listener.Addr().String()
}

// Close shuts the gateway down.
func (g *Gateway) Close() error {
	if g.server == nil {
		return nil
	}
	return g.server.Close()
}

// injectDelay waits out the simulated round-trip unless the client goes.
func (g *Gateway) injectDelay(r *http.Request, name string) {
	if g.Delay == nil {
		return
	}
	if d := g.Delay(name); d > 0 {
		clk := clock.Or(g.Clock)
		clock.SleepUntil(r.Context(), clk, clk.Now().Add(2*d)) // request leg + response leg
	}
}

func (g *Gateway) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": g.Store.List()})
}

func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g.injectDelay(r, name)
	doc, gen, ok := g.Store.View(name)
	if !ok {
		writeError(w, http.StatusNotFound, "model %q not found", name)
		return
	}
	w.Header().Set("X-Digibox-Generation", strconv.FormatUint(gen, 10))
	writeJSON(w, http.StatusOK, map[string]any(doc))
}

// handleStatus returns the mock's reportable state: everything except
// the meta section, with intent halves of intent/status pairs elided —
// what a real device would report on its status endpoint.
func (g *Gateway) handleStatus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g.injectDelay(r, name)
	doc, gen, ok := g.Store.View(name)
	if !ok {
		writeError(w, http.StatusNotFound, "model %q not found", name)
		return
	}
	status := map[string]any{}
	for k, v := range doc {
		if k == "meta" {
			continue
		}
		if pair, ok := v.(map[string]any); ok {
			if s, has := pair["status"]; has && len(pair) <= 2 {
				if _, hasIntent := pair["intent"]; hasIntent {
					status[k] = s
					continue
				}
			}
		}
		status[k] = v
	}
	w.Header().Set("X-Digibox-Generation", strconv.FormatUint(gen, 10))
	if g.Log != nil {
		g.Log.Message(name, r.URL.Path, "", "recv")
	}
	writeJSON(w, http.StatusOK, status)
}

func (g *Gateway) handlePatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	g.injectDelay(r, name)
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var patch map[string]any
	if err := json.Unmarshal(body, &patch); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON patch: %v", err)
		return
	}
	up, err := g.Store.Patch(name, patch)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	if g.Log != nil {
		// Bytes that are not UTF-8 are logged as U+FFFD, so the record
		// survives its own JSON encoding and a trace archive's digest
		// check.
		g.Log.Message(name, r.URL.Path, strings.ToValidUTF8(string(body), "\uFFFD"), "recv")
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": up.Gen,
		"changed":    len(up.Changes),
	})
}

// handleWatch long-polls until the model's generation exceeds gen or
// the timeout elapses, returning the current document either way.
func (g *Gateway) handleWatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	sinceGen, _ := strconv.ParseUint(r.URL.Query().Get("gen"), 10, 64)
	timeout := 10 * time.Second
	if ms, err := strconv.Atoi(r.URL.Query().Get("timeout_ms")); err == nil && ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	doc, gen, ok := g.Store.View(name)
	if !ok {
		writeError(w, http.StatusNotFound, "model %q not found", name)
		return
	}
	if gen <= sinceGen {
		watcher := g.Store.WatchName(name)
		defer watcher.Close()
		// Re-check after registration to close the race with writers.
		if doc, gen, ok = g.Store.View(name); !ok || gen <= sinceGen {
			select {
			case u, open := <-watcher.C:
				if !open || u.Deleted {
					writeError(w, http.StatusGone, "model %q deleted", name)
					return
				}
				doc, gen = u.Doc, u.Gen
			case <-time.After(timeout): //dbox:allow wallclock -- the long-poll timeout is the application's own wait, in wall time
			case <-r.Context().Done():
				return
			}
		}
	}
	g.injectDelay(r, name)
	w.Header().Set("X-Digibox-Generation", strconv.FormatUint(gen, 10))
	writeJSON(w, http.StatusOK, map[string]any(doc))
}

// Client is a minimal typed client for the gateway, used by example
// applications and the benchmark harness.
type Client struct {
	Base string // e.g. "http://127.0.0.1:8080"
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Status fetches a mock's status (the §4 benchmark request).
func (c *Client) Status(name string) (map[string]any, error) {
	resp, err := c.http().Get(c.Base + "/v1/models/" + name + "/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return decodeMap(resp)
}

// Patch sends a JSON merge-patch (e.g. {"power":{"intent":"on"}}).
func (c *Client) Patch(name string, patch map[string]any) error {
	data, err := json.Marshal(patch)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPatch,
		c.Base+"/v1/models/"+name, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		m, _ := decodeMap(resp)
		return fmt.Errorf("rest: patch %s: status %d: %v", name, resp.StatusCode, m)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

func decodeMap(resp *http.Response) (map[string]any, error) {
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil, errors.New("rest: not found")
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("rest: decode: %w", err)
	}
	return m, nil
}
