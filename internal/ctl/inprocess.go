package ctl

import (
	"fmt"
	"net/http"
	"net/http/httptest"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/scene"
)

// NewTestbed builds and starts the testbed the control API serves:
// core.New with every built-in device mock and scene kind registered.
// dboxd, dbox's in-process mode and tests all build it here, so kind
// registration lives in one place.
func NewTestbed(opts core.Options) (*core.Testbed, error) {
	tb, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	if err := device.RegisterAll(tb.Registry); err != nil {
		return nil, fmt.Errorf("register devices: %w", err)
	}
	if err := scene.RegisterAll(tb.Registry); err != nil {
		return nil, fmt.Errorf("register scenes: %w", err)
	}
	if err := tb.Start(); err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	return tb, nil
}

// InProcess returns a client whose requests h serves in process: no
// listener, no socket, and no timeout. Each response is buffered whole
// before it returns, so streaming endpoints (watch, events) only
// answer once their handler does.
func InProcess(h http.Handler) *Client {
	return &Client{Base: "http://in-process", HTTP: &http.Client{Transport: handlerTransport{h}}}
}

// handlerTransport is an http.RoundTripper that serves each request
// with a handler into a recorded response.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	if req.Body != nil {
		req.Body.Close()
	}
	return rec.Result(), nil
}
