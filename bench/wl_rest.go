package main

import (
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	digibox "repro"
	"repro/internal/rest"
)

const (
	restSensors   = 1000
	restRooms     = 100
	restBuildings = 5
	// opHeader carries the traced operation's number to the handler
	// middleware.
	opHeader = "X-Bench-Op"
)

// restWorkload is rest_status, the paper's §4 measurement: one
// keep-alive client GETs /status of seed-permuted mocks in a
// 1000-sensor, 100-room, 5-building scene on two nodes. No zone delay
// is injected: 50 ms of simulated network would drown every change.
type restWorkload struct {
	seed int64
	tr   *tracer

	tb    *digibox.Testbed
	cli   *rest.Client
	hc    *http.Client
	names []string
	next  int

	// Traced run only: the harness's own server around the gateway's
	// handler, so the handler's share of a GET can be timed.
	srv       *http.Server
	srvDone   chan struct{}
	tracedCli *rest.Client
	opNum     int
	// The middleware's marks for the latest traced request, written on
	// the server's goroutine.
	handlerStart, handlerEnd, handlerOp atomic.Int64
}

func sensorName(i int) string { return fmt.Sprintf("o%04d", i) }

func (w *restWorkload) setup() error {
	tb, err := digibox.New(digibox.Options{
		Nodes: []digibox.NodeSpec{
			{Name: "ec2-a", Capacity: 4096, Zone: "us-east"},
			{Name: "ec2-b", Capacity: 4096, Zone: "us-east"},
		},
	})
	if err != nil {
		return err
	}
	w.tb = tb
	if err := tb.Start(); err != nil {
		return err
	}
	tick := map[string]any{"interval_ms": int64(2000)}
	for i := 0; i < restSensors; i++ {
		if err := tb.Run("Occupancy", sensorName(i), tick); err != nil {
			return err
		}
	}
	for i := 0; i < restRooms; i++ {
		if err := tb.Run("Room", fmt.Sprintf("room%03d", i), tick); err != nil {
			return err
		}
	}
	for i := 0; i < restBuildings; i++ {
		if err := tb.Run("Building", fmt.Sprintf("building%02d", i), tick); err != nil {
			return err
		}
	}
	for i := 0; i < restSensors; i++ {
		if err := tb.Attach(sensorName(i), fmt.Sprintf("room%03d", i%restRooms)); err != nil {
			return err
		}
	}
	for i := 0; i < restRooms; i++ {
		if err := tb.Attach(fmt.Sprintf("room%03d", i), fmt.Sprintf("building%02d", i%restBuildings)); err != nil {
			return err
		}
	}

	w.names = make([]string, restSensors)
	for i, p := range permutation(w.seed, restSensors) {
		w.names[i] = sensorName(p)
	}
	w.hc = &http.Client{
		Timeout:   opTimeout,
		Transport: &opTransport{base: &http.Transport{MaxIdleConnsPerHost: 1}, w: w},
	}
	w.cli = &rest.Client{Base: "http://" + tb.RESTAddr(), HTTP: w.hc}
	if w.tr != nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w.srv = &http.Server{Handler: w.timed(tb.Gateway.Handler())}
		w.srvDone = make(chan struct{})
		go func() {
			defer close(w.srvDone)
			w.srv.Serve(ln) // returns ErrServerClosed once teardown closes the server
		}()
		w.tracedCli = &rest.Client{Base: "http://" + ln.Addr().String(), HTTP: w.hc}
	}
	return nil
}

// opTransport stamps the traced operation's number on each request.
type opTransport struct {
	base http.RoundTripper
	w    *restWorkload
}

func (t *opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.w.tr.active() {
		r.Header.Set(opHeader, strconv.Itoa(t.w.opNum))
	}
	return t.base.RoundTrip(r)
}

// timed is the middleware of the traced run: it times the gateway's
// handler. The load goroutine reads the marks once the response is
// back; net/http flushes a small response only after the handler
// returns, so they are in place by then.
func (w *restWorkload) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		op, err := strconv.Atoi(r.Header.Get(opHeader))
		if err != nil || !w.tr.active() {
			next.ServeHTTP(rw, r)
			return
		}
		start := w.tr.now()
		next.ServeHTTP(rw, r)
		w.handlerStart.Store(start)
		w.handlerEnd.Store(w.tr.now())
		w.handlerOp.Store(int64(op))
	})
}

func (w *restWorkload) op() (time.Duration, int, error) {
	name := w.names[w.next]
	w.next = (w.next + 1) % len(w.names)
	cli := w.cli
	traced := w.tr.active()
	if traced {
		cli = w.tracedCli
		w.opNum++
	}
	t0 := time.Now()
	got, err := cli.Status(name)
	lat := time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	if err := w.checkStatus(cli, name, got); err != nil {
		return 0, 0, err
	}
	if traced && w.tr.keep() && w.handlerOp.Load() == int64(w.opNum) {
		start := w.tr.at(t0)
		w.tr.op([]span{
			{ID: 1, Name: "rest.client_status", Start: start, End: start + int64(lat)},
			{ID: 2, Parent: 1, Name: "rest.handler_status", Start: w.handlerStart.Load(), End: w.handlerEnd.Load()},
		})
	}
	return lat, 1, nil
}

// checkStatus is the per-operation oracle: the reply is exactly the
// mock's reportable state, {"triggered": <the stored value>}. A
// building tick can change the value between the reply and the store
// read, so one mismatch is settled by asking again.
func (w *restWorkload) checkStatus(cli *rest.Client, name string, got map[string]any) error {
	for attempt := 0; ; attempt++ {
		v, ok := got["triggered"].(bool)
		if !ok || len(got) != 1 {
			return fmt.Errorf("status of %s is %v, want only a boolean \"triggered\"", name, got)
		}
		doc, err := w.tb.Check(name)
		if err != nil {
			return err
		}
		if doc.GetBool("triggered") == v {
			return nil
		}
		if attempt == 1 {
			return fmt.Errorf("status of %s says triggered=%v, the store says %v", name, v, !v)
		}
		if got, err = cli.Status(name); err != nil {
			return err
		}
	}
}

func (w *restWorkload) verify() error {
	if st := w.tb.Stats(); st.Models != restSensors+restRooms+restBuildings {
		return fmt.Errorf("%d models in the store, want %d", st.Models, restSensors+restRooms+restBuildings)
	}
	if v := w.tb.Violations(); len(v) > 0 {
		return fmt.Errorf("%d property violations", len(v))
	}
	return nil
}

func (w *restWorkload) layers(m map[string]metric) {
	st := w.tb.Stats()
	m["broker.publishes_in"] = metric{float64(st.Broker.PublishesIn), "count"}
	m["broker.messages_out"] = metric{float64(st.Broker.MessagesOut), "count"}
	m["broker.dropped"] = metric{float64(st.Broker.Dropped), "count"}
	m["trace.log_records"] = metric{float64(st.TraceLen), "count"}
}

func (w *restWorkload) teardown() {
	if w.srv != nil {
		w.srv.Close() // only read; nothing to flush
		<-w.srvDone
		w.srv = nil
	}
	if w.hc != nil {
		w.hc.CloseIdleConnections()
		w.hc = nil
	}
	if w.tb != nil {
		w.tb.Stop()
		w.tb = nil
	}
}
