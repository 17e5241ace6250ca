package obs

import (
	"testing"
	"time"
)

func TestBusFanOutAndOrder(t *testing.T) {
	r := NewRegistry()
	b := NewBus(r, nil)
	defer b.Close()
	a := b.Subscribe(16)
	c := b.Subscribe(16)
	for i := 0; i < 5; i++ {
		b.Publish("fault", map[string]any{"i": i})
	}
	for _, s := range []*Sub{a, c} {
		for i := 0; i < 5; i++ {
			ev := <-s.C()
			if ev.Kind != "fault" || ev.Data["i"] != i {
				t.Fatalf("got %+v, want fault i=%d", ev, i)
			}
			if ev.Seq != uint64(i+1) {
				t.Fatalf("seq %d, want %d", ev.Seq, i+1)
			}
		}
	}
	if got := r.Value("digibox_events_published_total"); got != 5 {
		t.Fatalf("published counter = %v, want 5", got)
	}
}

func TestBusShedsSlowSubscriberWithoutBlocking(t *testing.T) {
	r := NewRegistry()
	b := NewBus(r, nil)
	defer b.Close()
	b.Subscribe(2) // never drained: every event past its buffer is shed
	live := b.Subscribe(64)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			b.Publish("tick", map[string]any{"i": i})
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a full subscriber")
	}
	for i := 0; i < 50; i++ {
		ev := <-live.C()
		if ev.Data["i"] != i {
			t.Fatalf("live consumer saw %+v at position %d", ev, i)
		}
	}
	if got := r.Value("digibox_events_dropped_total"); got != 48 {
		t.Fatalf("dropped counter = %v, want 48", got)
	}
}

func TestBusSubClose(t *testing.T) {
	b := NewBus(nil, nil)
	defer b.Close()
	s := b.Subscribe(4)
	s.Close()
	s.Close()           // idempotent
	b.Publish("x", nil) // must not panic on the closed sub
	if _, ok := <-s.C(); ok {
		t.Fatal("closed sub's channel still delivers")
	}
	if b.Subscribers() != 0 {
		t.Fatalf("subscribers = %d, want 0", b.Subscribers())
	}
}

func TestBusCloseClosesSubscribers(t *testing.T) {
	b := NewBus(nil, nil)
	s := b.Subscribe(4)
	b.Close()
	b.Close() // idempotent
	if _, ok := <-s.C(); ok {
		t.Fatal("channel open after bus close")
	}
	if late := b.Subscribe(4); late != nil {
		if _, ok := <-late.C(); ok {
			t.Fatal("subscribe after close returned a live channel")
		}
	}
	b.Publish("x", nil) // no-op, must not panic
}

func TestNilBusIsInert(t *testing.T) {
	var b *Bus
	b.Publish("x", nil)
	b.Close()
	if b.Subscribers() != 0 {
		t.Fatal("nil bus has subscribers")
	}
	s := b.Subscribe(4)
	if _, ok := <-s.C(); ok {
		t.Fatal("nil bus subscription delivered")
	}
	s.Close()
}

func TestLatencyClassesEmptyRegistry(t *testing.T) {
	r := NewRegistry()
	if classes, total := r.LatencyClasses(); classes != nil || total != 0 {
		t.Fatalf("got %v/%d from empty registry", classes, total)
	}
	var nilr *Registry
	if classes, total := nilr.LatencyClasses(); classes != nil || total != 0 {
		t.Fatalf("got %v/%d from nil registry", classes, total)
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	if got := RegisterBuildInfo(r); got != Version {
		t.Fatalf("RegisterBuildInfo = %q, want %q", got, Version)
	}
	if v := r.Value("digibox_build_info"); v != 1 {
		t.Fatalf("digibox_build_info = %v, want 1", v)
	}
}
