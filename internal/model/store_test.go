package model

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func storeWithLamp(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	if err := s.Create(lampDoc()); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreCreateGet(t *testing.T) {
	s := storeWithLamp(t)
	d, gen, ok := s.Get("L1")
	if !ok || gen == 0 {
		t.Fatalf("Get: ok=%v gen=%d", ok, gen)
	}
	if d.Name() != "L1" {
		t.Errorf("name = %q", d.Name())
	}
	// Returned snapshot must be independent.
	d.Set("power.status", "off")
	d2, _, _ := s.Get("L1")
	if v, _ := d2.Get("power.status"); v != "on" {
		t.Error("snapshot mutation leaked into store")
	}
}

func TestStoreCreateDuplicate(t *testing.T) {
	s := storeWithLamp(t)
	if err := s.Create(lampDoc()); err == nil {
		t.Error("duplicate create should fail")
	}
}

func TestStoreCreateRequiresMeta(t *testing.T) {
	s := NewStore()
	if err := s.Create(Doc{"x": int64(1)}); err == nil {
		t.Error("create without meta should fail")
	}
}

func TestStoreApplyPublishesDiff(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	defer w.Close()

	up, err := s.Apply("L1", func(d *Draft) error {
		d.Set("power.status", "off")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Changes) != 1 || up.Changes[0].Path != "power.status" {
		t.Fatalf("changes = %v", up.Changes)
	}
	select {
	case got := <-w.C:
		if got.Gen != up.Gen || len(got.Changes) != 1 {
			t.Errorf("watch update = %+v", got)
		}
		if v, _ := got.Doc.Get("power.status"); v != "off" {
			t.Errorf("watch snapshot stale: %v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no watch update")
	}
}

func TestStoreApplyNoopDoesNotNotify(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	defer w.Close()
	up, err := s.Apply("L1", func(d *Draft) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Changes) != 0 {
		t.Errorf("noop produced changes %v", up.Changes)
	}
	select {
	case u := <-w.C:
		t.Errorf("unexpected update %+v", u)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestStoreApplyErrorRollsBack(t *testing.T) {
	s := storeWithLamp(t)
	_, err := s.Apply("L1", func(d *Draft) error {
		d.Set("power.status", "off")
		return fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("want error")
	}
	d, _, _ := s.Get("L1")
	if v, _ := d.Get("power.status"); v != "on" {
		t.Error("failed apply mutated the store")
	}
}

func TestStoreApplyMissing(t *testing.T) {
	s := NewStore()
	if _, err := s.Apply("ghost", func(*Draft) error { return nil }); err == nil {
		t.Error("apply on missing model should fail")
	}
}

func TestStorePatch(t *testing.T) {
	s := storeWithLamp(t)
	up, err := s.Patch("L1", map[string]any{"power": map[string]any{"intent": "off"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(up.Changes) != 1 || up.Changes[0].Path != "power.intent" {
		t.Errorf("patch changes = %v", up.Changes)
	}
}

func TestStoreDelete(t *testing.T) {
	s := storeWithLamp(t)
	w := s.Watch(nil)
	defer w.Close()
	if !s.Delete("L1") {
		t.Fatal("delete failed")
	}
	if s.Delete("L1") {
		t.Error("second delete should return false")
	}
	if s.Has("L1") {
		t.Error("Has after delete")
	}
	select {
	case u := <-w.C:
		if !u.Deleted {
			t.Errorf("want deletion update, got %+v", u)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no deletion update")
	}
}

func TestStoreListAndSnapshot(t *testing.T) {
	s := NewStore()
	for _, n := range []string{"b", "a", "c"} {
		d := Doc{}
		d.SetMeta(Meta{Type: "Lamp", Name: n})
		if err := s.Create(d); err != nil {
			t.Fatal(err)
		}
	}
	got := s.List()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v", got)
		}
	}
}

func TestWatcherOrderingUnderConcurrency(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	defer w.Close()

	const writers, each = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				_, err := s.Apply("L1", func(d *Draft) error {
					n, _ := d.GetInt("counter")
					d.Set("counter", n+1)
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	d, _, _ := s.Get("L1")
	n, _ := d.GetInt("counter")
	if n != writers*each {
		t.Errorf("counter = %d, want %d (lost updates)", n, writers*each)
	}

	// Every update must arrive, in strictly increasing generation order.
	var lastGen uint64
	for i := 0; i < writers*each; i++ {
		select {
		case u := <-w.C:
			if u.Gen <= lastGen {
				t.Fatalf("generation went backwards: %d after %d", u.Gen, lastGen)
			}
			lastGen = u.Gen
		case <-time.After(5 * time.Second):
			t.Fatalf("missing update %d", i)
		}
	}
}

func TestWatcherFilter(t *testing.T) {
	s := NewStore()
	a := Doc{}
	a.SetMeta(Meta{Type: "Lamp", Name: "A"})
	b := Doc{}
	b.SetMeta(Meta{Type: "Fan", Name: "B"})
	w := s.Watch(func(u Update) bool { return u.Type == "Fan" })
	defer w.Close()
	if err := s.Create(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Create(b); err != nil {
		t.Fatal(err)
	}
	select {
	case u := <-w.C:
		if u.Name != "B" {
			t.Errorf("filtered watch got %q", u.Name)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no update")
	}
}

func TestWatcherCloseUnblocksPump(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	// Queue several updates without reading, then close.
	for i := 0; i < 10; i++ {
		if _, err := s.Apply("L1", func(d *Draft) error { d.Set("n", i); return nil }); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Channel must eventually close even though we never consumed.
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-w.C:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("watcher channel never closed")
		}
	}
}

func TestWatcherDoubleCloseSafe(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	w.Close()
	w.Close() // must not panic
}

// Property: for any random sequence of Apply mutations, replaying the
// watch stream's diffs over the initial snapshot reproduces the final
// document. This is the invariant trace replay (§3.5) depends on.
func TestQuickWatchStreamReconstructsState(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := NewStore()
		initial := Doc{}
		initial.SetMeta(Meta{Type: "Thing", Name: "T"})
		w := s.Watch(nil)
		defer w.Close()
		if err := s.Create(initial); err != nil {
			t.Log(err)
			return false
		}
		paths := []string{"a", "a.b", "c", "d.e.f", "g"}
		n := 5 + r.Intn(20)
		for i := 0; i < n; i++ {
			p := paths[r.Intn(len(paths))]
			if r.Intn(5) == 0 {
				s.Apply("T", func(d *Draft) error { d.Delete(p); return nil })
			} else {
				val := r.Intn(10)
				s.Apply("T", func(d *Draft) error { d.Set(p, val); return nil })
			}
		}
		final, _, _ := s.Get("T")

		rebuilt := Doc{}
		timeout := time.After(5 * time.Second)
		var seen uint64
		for !Equal(rebuilt, final) {
			select {
			case u := <-w.C:
				seen = u.Gen
				rebuilt.ApplyChanges(u.Changes)
			case <-timeout:
				t.Logf("rebuilt never converged (last gen %d):\n%v\nvs\n%v", seen, rebuilt, final)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A delivered update (and its diff) must not stay reachable from the
// watcher's queue: once the consumer drops it, the collector frees it
// while the watch is still open.
func TestWatcherPumpReleasesDeliveredUpdates(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	defer w.Close()
	for i := 0; i < 3; i++ {
		if _, err := s.Patch("L1", map[string]any{"n": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var freed atomic.Int32
	for i := 0; i < 3; i++ {
		u := <-w.C
		runtime.SetFinalizer(&u.Changes[0], func(*Change) { freed.Add(1) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 3 delivered updates collected", freed.Load())
		}
		runtime.GC()
	}
}

func TestViewSharesTheCommittedDocument(t *testing.T) {
	s := storeWithLamp(t)
	v1, gen1, ok := s.View("L1")
	if !ok || gen1 == 0 {
		t.Fatalf("View: ok=%v gen=%d", ok, gen1)
	}
	frozen := v1.DeepCopy()
	if _, err := s.Patch("L1", map[string]any{"power": map[string]any{"status": "off"}}); err != nil {
		t.Fatal(err)
	}
	if !Equal(v1, frozen) {
		t.Error("a commit changed a document an earlier View returned")
	}
	v2, gen2, _ := s.View("L1")
	if gen2 <= gen1 || v2.GetString("power.status") != "off" {
		t.Errorf("View after the commit: gen %d → %d, status %q", gen1, gen2, v2.GetString("power.status"))
	}
	if _, _, ok := s.View("nope"); ok {
		t.Error("View of a missing model reports ok")
	}
}

// TestReadersSeeEveryCommitUpToTheGenTheyRead is the store's read
// contract, under -race: readers take no lock, yet a reader that reads
// Gen() == g and then calls View(n) or Has(n) never sees n older than
// its last commit at or below g, and a document View returned never
// changes afterwards. Writers create, commit, apply (some of them
// no-ops) and delete while the readers run; a Watch(nil) watcher
// records the full commit history the observations are checked
// against.
func TestReadersSeeEveryCommitUpToTheGenTheyRead(t *testing.T) {
	const names, readers, writes, maxReads = 12, 4, 3000, 20000
	s := NewStore()
	history := s.Watch(nil)
	defer history.Close()
	name := func(i int) string { return fmt.Sprintf("M%02d", i) }

	type seen struct {
		gen    uint64 // Gen(), read first
		name   string
		has    bool // the read was Has, not View
		ok     bool
		vgen   uint64 // the version View returned
		shared Doc    // kept beside a copy for every 16th View
		copied Doc
	}
	obs := make([][]seen, readers)
	stop := make(chan struct{})
	var readersDone, writers sync.WaitGroup
	for r := range obs {
		readersDone.Add(1)
		go func(r int) {
			defer readersDone.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < maxReads; i++ {
				select {
				case <-stop:
					return
				default:
				}
				o := seen{gen: s.Gen(), name: name(rnd.Intn(names)), has: i%3 == 0}
				if o.has {
					o.ok = s.Has(o.name)
				} else {
					var d Doc
					d, o.vgen, o.ok = s.View(o.name)
					if o.ok && i%16 == 1 {
						o.shared, o.copied = d, d.DeepCopy()
					}
				}
				obs[r] = append(obs[r], o)
			}
		}(r)
	}
	for wr := 0; wr < 2; wr++ {
		writers.Add(1)
		go func(wr int) {
			defer writers.Done()
			rnd := rand.New(rand.NewSource(int64(100 + wr)))
			for i := 0; i < writes; i++ {
				n := name(rnd.Intn(names))
				if !s.Has(n) {
					d := Doc{"n": int64(0), "deep": map[string]any{"k": int64(0)}}
					d.SetMeta(Meta{Type: "T", Version: "v1", Name: n})
					s.Create(d) // the other writer may have won: an error is fine
					continue
				}
				// Some of these change nothing: no generation, no update.
				switch p := rnd.Intn(20); {
				case p < 10:
					s.Commit(n, []Change{{Op: OpSet, Path: "deep.k", New: int64(rnd.Intn(4))}})
				case p < 17:
					s.Apply(n, func(d *Draft) error { d.Set("n", int64(rnd.Intn(4))); return nil })
				default:
					s.Delete(n)
				}
			}
		}(wr)
	}
	writers.Wait()
	close(stop)
	readersDone.Wait()

	// byName[n] is n's commit history, in commit order.
	byName := map[string][]Update{}
	for last := s.Gen(); ; {
		var u Update
		select {
		case u = <-history.C:
		case <-time.After(5 * time.Second):
			t.Fatalf("the history watcher stopped short of gen %d", last)
		}
		byName[u.Name] = append(byName[u.Name], u)
		if u.Gen == last {
			break
		}
	}
	var found, missing int
	for _, os := range obs {
		for _, o := range os {
			if o.ok {
				found++
			} else {
				missing++
			}
			h := byName[o.name]
			// h[:i] is at or below the generation the reader read.
			i := sort.Search(len(h), func(i int) bool { return h[i].Gen > o.gen })
			live := i > 0 && !h[i-1].Deleted
			deletedSince := slices.ContainsFunc(h[i:], func(u Update) bool { return u.Deleted })
			switch {
			case !o.ok && live && !deletedSince:
				t.Fatalf("%s missing after Gen()=%d: live since gen %d and not deleted after", o.name, o.gen, h[i-1].Gen)
			case o.ok && !live && i == len(h):
				t.Fatalf("%s found after Gen()=%d: absent then and not created after", o.name, o.gen)
			case o.ok && !o.has:
				oldest := o.gen + 1
				if live {
					oldest = h[i-1].Gen
				}
				if o.vgen < oldest {
					t.Fatalf("View(%s) after Gen()=%d returned gen %d, older than gen %d", o.name, o.gen, o.vgen, oldest)
				}
				j := slices.IndexFunc(h, func(u Update) bool { return u.Gen == o.vgen && !u.Deleted })
				if j < 0 {
					t.Fatalf("View(%s) returned gen %d, which committed no version of it", o.name, o.vgen)
				}
				if o.shared != nil && !Equal(o.copied, h[j].Doc) {
					t.Fatalf("View(%s) returned %v as gen %d, which committed %v", o.name, o.copied, o.vgen, h[j].Doc)
				}
			}
			if o.shared != nil && !Equal(o.shared, o.copied) {
				t.Fatalf("a document View(%s) returned changed afterwards:\nthen %v\nnow  %v", o.name, o.copied, o.shared)
			}
		}
	}
	if found == 0 || missing == 0 {
		t.Errorf("readers found %d models and missed %d: the reads did not overlap creates and deletes", found, missing)
	}
}
