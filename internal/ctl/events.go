package ctl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// handleEvents streams the testbed's fan-out event bus as Server-Sent
// Events: one SSE message per bus event, `event:` set to the bus kind
// ("fault", "shard", "pod", "client"), `id:` to the bus sequence
// number, and `data:` to the event JSON. The stream opens with a
// "hello" message carrying build/uptime info.
//
// Query parameters:
//
//	kind=a,b  only stream the named kinds
//	max=N     close after N events (poll-style consumption, tests)
//	buffer=N  subscriber buffer size (default 256; the bus sheds
//	          events for this subscriber when the buffer is full and
//	          counts them in digibox_events_dropped_total)
//
// A slow consumer never blocks a publisher: shedding is per-subscriber
// and the dropped counter is the only evidence other consumers see.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	q := r.URL.Query()
	maxEvents := 0
	if v, err := strconv.Atoi(q.Get("max")); err == nil && v > 0 {
		maxEvents = v
	}
	buffer := 256
	if v, err := strconv.Atoi(q.Get("buffer")); err == nil && v > 0 {
		buffer = v
	}
	var kinds map[string]bool
	if raw := q.Get("kind"); raw != "" {
		kinds = map[string]bool{}
		for _, k := range strings.Split(raw, ",") {
			kinds[strings.TrimSpace(k)] = true
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	sub := s.TB.Bus.Subscribe(buffer)
	defer sub.Close()

	hello, _ := json.Marshal(map[string]any{
		"version":    s.TB.Version,
		"started_at": startedAt(s.TB),
	})
	fmt.Fprintf(w, "event: hello\ndata: %s\n\n", hello)
	flusher.Flush()

	sent := 0
	for {
		select {
		case ev, open := <-sub.C():
			if !open {
				return
			}
			if kinds != nil && !kinds[ev.Kind] {
				continue
			}
			data, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data); err != nil {
				return
			}
			flusher.Flush()
			sent++
			if maxEvents > 0 && sent >= maxEvents {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
