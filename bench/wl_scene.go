package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	digibox "repro"
	"repro/internal/broker"
	"repro/internal/model"
	"repro/internal/rest"
)

const (
	sceneMocks = 50
	sceneRoom  = "R"
)

// sceneWorkload is scene_fanout, the paper's Fig. 2/5/6 pipeline end
// to end: an application PATCHes the Room's human_presence over REST
// and waits, on one MQTT/TCP session subscribed to digibox/+/status,
// until all 50 attached Occupancy mocks have reported the matching
// {"triggered":…}. Generators are parked (the Room unmanaged, the
// mocks ticking once an hour) so every status is caused by the PATCH.
type sceneWorkload struct {
	seed int64
	tr   *tracer

	tb       *digibox.Testbed
	cli      *rest.Client
	hc       *http.Client
	app      *broker.Client
	presence bool
	timer    *time.Timer
	index    map[string]int // mock name → slot in seen

	// The event in flight, shared with the subscriber's goroutine.
	mu            sync.Mutex
	want          []byte // status payload the event must produce
	seen          []bool
	count         int
	firstAt       time.Time
	contradiction int // statuses that disagree with the scene (Fig. 7's claim: none)
	done          chan time.Time

	// Traced run only: watchers on the Room and on its children, each
	// drained by an observer goroutine that stamps the commits of the
	// event in flight.
	roomW, childW          *model.Watcher
	observers              sync.WaitGroup
	wantPresence           atomic.Bool
	roomAt                 atomic.Int64
	firstChildAt           atomic.Int64
	lastChildAt            atomic.Int64
	childCount             atomic.Int32
	roomSeen, childrenSeen chan struct{}
	firstStatusUs          []float64 // PATCH → first status, per traced event
}

func mockName(i int) string { return fmt.Sprintf("occ%02d", i) }

func (w *sceneWorkload) setup() error {
	tb, err := digibox.New(digibox.Options{})
	if err != nil {
		return err
	}
	w.tb = tb
	if err := tb.Start(); err != nil {
		return err
	}
	if err := tb.Run("Room", sceneRoom, map[string]any{"managed": false}); err != nil {
		return err
	}
	w.index = make(map[string]int, sceneMocks)
	// Seed order decides which mock is deployed and attached first.
	for slot, i := range permutation(w.seed, sceneMocks) {
		name := mockName(i)
		w.index[name] = slot
		if err := tb.Run("Occupancy", name, map[string]any{"interval_ms": int64(3600000)}); err != nil {
			return err
		}
		if err := tb.Attach(name, sceneRoom); err != nil {
			return err
		}
	}
	w.seen = make([]bool, sceneMocks)
	w.done = make(chan time.Time, 1)
	w.timer = time.NewTimer(time.Hour)
	w.timer.Stop()
	w.presence = false
	w.hc = &http.Client{Timeout: opTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	w.cli = &rest.Client{Base: "http://" + tb.RESTAddr(), HTTP: w.hc}

	// Each mock publishes its status twice while the scene is built —
	// at boot and when Attach parks its generator — on its own
	// goroutine. Let those land before subscribing, or a late one
	// arrives as a live duplicate of the retained copy.
	for deadline := time.Now().Add(opTimeout); tb.Broker.Stats().PublishesIn < 2*sceneMocks; {
		if time.Now().After(deadline) {
			return errors.New("the mocks' set-up statuses never all arrived")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The subscription replays one retained status per mock; arm the
	// first "event" to absorb exactly those before the loop starts.
	w.arm([]byte(`{"triggered":false}`))
	w.app, err = broker.Dial(tb.BrokerAddr(), &broker.ClientOptions{ClientID: "bench-app", AckTimeout: opTimeout})
	if err != nil {
		return err
	}
	if err := w.app.Subscribe("digibox/+/status", 0, w.onStatus); err != nil {
		return err
	}
	if _, err := w.await(); err != nil {
		return fmt.Errorf("retained statuses: %w", err)
	}
	if w.tr != nil {
		w.roomW = tb.Watch(sceneRoom)
		w.childW = tb.Store.Watch(func(u model.Update) bool { _, ok := w.index[u.Name]; return ok })
		w.roomSeen, w.childrenSeen = make(chan struct{}, 1), make(chan struct{}, 1)
		w.observers.Add(2)
		go w.observe(w.roomW, "human_presence", w.markRoom)
		go w.observe(w.childW, "triggered", w.markChild)
	}
	return nil
}

// arm starts a new event expecting want from every mock.
func (w *sceneWorkload) arm(want []byte) {
	w.mu.Lock()
	w.want = want
	w.count = 0
	for i := range w.seen {
		w.seen[i] = false
	}
	w.mu.Unlock()
}

// onStatus runs on the application client's read goroutine.
func (w *sceneWorkload) onStatus(m broker.Message) {
	now := time.Now()
	name := strings.TrimSuffix(strings.TrimPrefix(m.Topic, "digibox/"), "/status")
	slot, ok := w.index[name]
	if !ok {
		return // the Room itself never publishes; nothing else is deployed
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if !bytes.Equal(m.Payload, w.want) || w.seen[slot] {
		w.contradiction++
		return
	}
	w.seen[slot] = true
	w.count++
	if w.count == 1 {
		w.firstAt = now
	}
	if w.count == sceneMocks {
		w.done <- now
	}
}

// await blocks until the armed event has all its statuses.
func (w *sceneWorkload) await() (time.Time, error) {
	w.timer.Reset(opTimeout)
	select {
	case at := <-w.done:
		w.timer.Stop()
		return at, nil
	case <-w.timer.C:
		w.mu.Lock()
		n := w.count
		w.mu.Unlock()
		return time.Time{}, fmt.Errorf("%d of %d statuses arrived", n, sceneMocks)
	}
}

func (w *sceneWorkload) op() (time.Duration, int, error) {
	w.presence = !w.presence
	if w.tr.active() {
		w.childCount.Store(0)
		w.wantPresence.Store(w.presence)
	}
	w.arm([]byte(fmt.Sprintf(`{"triggered":%t}`, w.presence)))
	t0 := time.Now()
	if err := w.cli.Patch(sceneRoom, map[string]any{"human_presence": w.presence}); err != nil {
		return 0, 0, err
	}
	patched := time.Now()
	at, err := w.await()
	if err != nil {
		return 0, 0, err
	}
	if w.tr.active() {
		if err := w.trace(t0, patched, at); err != nil {
			return 0, 0, err
		}
	}
	return at.Sub(t0), sceneMocks, nil
}

// observe runs on its own goroutine in a traced run: it drains a
// watcher and lets mark stamp the updates that belong to the event in
// flight. It keeps draining while tracing is off, or the watcher's
// unbounded queue would grow through warm-up.
func (w *sceneWorkload) observe(wt *model.Watcher, field string, mark func(at int64)) {
	defer w.observers.Done()
	for u := range wt.C {
		if w.tr.active() && u.Doc.GetBool(field) == w.wantPresence.Load() {
			mark(w.tr.now())
		}
	}
}

func (w *sceneWorkload) markRoom(at int64) {
	w.roomAt.Store(at)
	w.roomSeen <- struct{}{}
}

func (w *sceneWorkload) markChild(at int64) {
	n := w.childCount.Add(1)
	if n == 1 {
		w.firstChildAt.Store(at)
	}
	if n == sceneMocks {
		w.lastChildAt.Store(at)
		w.childrenSeen <- struct{}{}
	}
}

// trace waits for the two observers to have seen the whole event
// (every status follows its commit, so the updates are at most a
// goroutine hand-off behind) and files the span tree: scene.event ⊃
// {scene.room_commit (PATCH → Watch("R") fires) ⊃ rest.patch,
// scene.child_commit_first, scene.child_commit_rest (→ last child
// watcher update), scene.status_tail (→ last status at the MQTT
// handler)}.
func (w *sceneWorkload) trace(t0, patched, lastStatus time.Time) error {
	for _, ch := range []chan struct{}{w.roomSeen, w.childrenSeen} {
		w.timer.Reset(opTimeout)
		select {
		case <-ch:
			w.timer.Stop()
		case <-w.timer.C:
			return errors.New("a watcher missed the event's commits")
		}
	}
	w.mu.Lock()
	firstStatus := w.tr.at(w.firstAt)
	w.mu.Unlock()
	start, end := w.tr.at(t0), w.tr.at(lastStatus)
	room, first, last := w.roomAt.Load(), w.firstChildAt.Load(), w.lastChildAt.Load()
	w.firstStatusUs = append(w.firstStatusUs, float64(firstStatus-start)/1e3)
	w.tr.op([]span{
		{ID: 1, Name: "scene.event", Start: start, End: end},
		{ID: 2, Parent: 1, Name: "scene.room_commit", Start: start, End: room},
		{ID: 3, Parent: 2, Name: "rest.patch", Start: start, End: w.tr.at(patched)},
		{ID: 4, Parent: 1, Name: "scene.child_commit_first", Start: room, End: first},
		{ID: 5, Parent: 1, Name: "scene.child_commit_rest", Start: first, End: last},
		{ID: 6, Parent: 1, Name: "scene.status_tail", Start: last, End: end},
	})
	return nil
}

func (w *sceneWorkload) verify() error {
	w.mu.Lock()
	n := w.contradiction
	w.mu.Unlock()
	if n > 0 {
		return fmt.Errorf("%d statuses contradicted the scene", n)
	}
	if d := w.tb.Stats().Broker.Dropped; d > 0 {
		return fmt.Errorf("broker dropped %d messages", d)
	}
	if v := w.tb.Violations(); len(v) > 0 {
		return fmt.Errorf("%d property violations", len(v))
	}
	return nil
}

func (w *sceneWorkload) layers(m map[string]metric) {
	st := w.tb.Stats()
	m["broker.publishes_in"] = metric{float64(st.Broker.PublishesIn), "count"}
	m["broker.messages_out"] = metric{float64(st.Broker.MessagesOut), "count"}
	m["broker.dropped"] = metric{float64(st.Broker.Dropped), "count"}
	m["trace.log_records"] = metric{float64(st.TraceLen), "count"}
}

func (w *sceneWorkload) teardown() {
	if w.roomW != nil {
		w.roomW.Close()
		w.childW.Close()
		w.observers.Wait()
		w.roomW, w.childW = nil, nil
	}
	if w.app != nil {
		w.app.Close()
		w.app = nil
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
