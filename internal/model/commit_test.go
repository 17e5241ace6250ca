package model

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// randPath addresses the key space randDoc draws from, one to three
// levels down.
func randPath(r *rand.Rand) string {
	parts := make([]string, 1+r.Intn(3))
	for i := range parts {
		parts[i] = fmt.Sprintf("k%d", r.Intn(6))
	}
	return strings.Join(parts, ".")
}

// randChanges is either a raw change list (overlapping paths, any
// order) or the Diff of some edit of base, shuffled — stale when base
// is no longer what the store holds.
func randChanges(r *rand.Rand, base Doc) []Change {
	var out []Change
	if r.Intn(2) == 0 {
		for i := 1 + r.Intn(6); i > 0; i-- {
			c := Change{Op: OpSet, Path: randPath(r), New: randValue(r, 2)}
			if r.Intn(3) == 0 {
				c = Change{Op: OpDelete, Path: c.Path}
			}
			out = append(out, c)
		}
		return out
	}
	target := base.DeepCopy()
	for i := 1 + r.Intn(5); i > 0; i-- {
		if r.Intn(3) == 0 {
			target.Delete(randPath(r))
		} else {
			target.Set(randPath(r), randValue(r, 2))
		}
	}
	out = Diff(base, target)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func sameMap(a, b map[string]any) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// checkSharing walks the maps of the previous version: one no change
// went through, replaced or removed is the same instance in the next
// version; one a set went through is a different instance.
func checkSharing(t *testing.T, prefix string, old, next map[string]any, changes []Change) {
	t.Helper()
	for k, ov := range old {
		om, ok := ov.(map[string]any)
		if !ok {
			continue
		}
		path := joinPath(prefix, k)
		var at, through bool
		for _, c := range changes {
			at = at || c.Path == path || strings.HasPrefix(path, c.Path+".")
			through = through || (c.Op == OpSet && strings.HasPrefix(c.Path, path+"."))
		}
		nm, isMap := next[k].(map[string]any)
		switch {
		case at:
		case !isMap:
			t.Fatalf("map at %q is gone though no change named it: %v", path, changes)
		case through && sameMap(om, nm):
			t.Fatalf("map at %q was written through but not copied: %v", path, changes)
		case !through && len(PathsUnder(changes, path)) == 0 && !sameMap(om, nm):
			t.Fatalf("untouched map at %q was copied: %v", path, changes)
		}
		if isMap && !at {
			checkSharing(t, path, om, nm, changes)
		}
	}
}

func TestCommitMatchesApply(t *testing.T) {
	const docs, rounds = 1200, 2
	for _, seed := range []int64{24, time.Now().UnixNano()} {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < docs; i++ {
			commit, apply := NewStore(), NewStore()
			doc := randDoc(r, 2)
			doc.SetMeta(Meta{Type: "Thing", Name: "T", Attach: []string{"x"}})
			if err := commit.Create(doc); err != nil {
				t.Fatal(err)
			}
			if err := apply.Create(doc); err != nil {
				t.Fatal(err)
			}
			stale := doc
			for j := 0; j < rounds; j++ {
				held, _, _ := commit.View("T")
				frozen := held.DeepCopy()
				changes := randChanges(r, stale)
				stale = held

				got, err := commit.Commit("T", changes)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := apply.Apply("T", func(d *Draft) error {
					d.ApplyChanges(changes)
					return nil
				})
				ctx := fmt.Sprintf("seed %d doc %d round %d:\nbase    %v\nchanges %v", seed, i, j, frozen, changes)
				if !reflect.DeepEqual(got.Changes, want.Changes) {
					t.Fatalf("%s\nCommit reported %v\nApply reported  %v", ctx, got.Changes, want.Changes)
				}
				if got.Gen != want.Gen || commit.Gen() != apply.Gen() {
					t.Fatalf("%s\ngenerations: Commit %d (store %d), Apply %d (store %d)", ctx, got.Gen, commit.Gen(), want.Gen, apply.Gen())
				}
				next, _, _ := commit.View("T")
				ref, _, _ := apply.View("T")
				if !reflect.DeepEqual(next, ref) || !Equal(next, got.Doc) {
					t.Fatalf("%s\nCommit made %v\nApply made  %v", ctx, next, ref)
				}
				// The caller's values are its own again after the commit.
				for _, c := range changes {
					if m, ok := c.New.(map[string]any); ok {
						m["scribble"] = true
					} else if s, ok := c.New.([]any); ok && len(s) > 0 {
						s[0] = "scribble"
					}
				}
				if !reflect.DeepEqual(next, ref) {
					t.Fatalf("%s\na Change.New the caller kept reaches the committed document", ctx)
				}
				if !reflect.DeepEqual(held, frozen) {
					t.Fatalf("%s\nthe previous version changed to %v", ctx, held)
				}
				if len(got.Changes) > 0 {
					checkSharing(t, "", held, next, changes)
				} else if !sameMap(held, next) {
					t.Fatalf("%s\na commit that changed nothing replaced the document", ctx)
				}
			}
		}
	}
}

// randEdit writes a few random sets, deletes and merges to d, some of
// them ones a change list does not rebuild: a number replaced by an
// Equal one of another type or sign, and a key holding a dot.
func randEdit(r *rand.Rand, d *Draft) {
	for i := 1 + r.Intn(4); i > 0; i-- {
		switch r.Intn(5) {
		case 0:
			d.Set(randPath(r), randValue(r, 2))
		case 1:
			d.Delete(randPath(r))
		case 2:
			d.Merge(map[string]any{fmt.Sprintf("k%d", r.Intn(6)): randValue(r, 2)})
		case 3:
			path := randPath(r)
			if r.Intn(2) == 0 {
				path = "n"
			}
			if v, ok := d.GetFloat(path); ok && r.Intn(2) == 0 {
				d.Set(path, v) // an int64 becomes a float64
			} else {
				d.Set(path, math.Copysign(0, -1))
			}
		default:
			dotted := map[string]any{"d.x": randValue(r, 1)}
			if r.Intn(2) == 0 {
				dotted = map[string]any{fmt.Sprintf("k%d", r.Intn(6)): dotted}
			}
			d.Merge(dotted)
		}
	}
}

// same reports whether a and b are the same document, number types and
// the sign of zero included.
func same(a, b Doc) bool {
	return reflect.DeepEqual(a, b) && fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// A draft committed through a watcher is what Commit of its Changes
// makes — the same document, number types and all, generation and
// Update.Changes — both while the draft's base is the committed
// version and once another commit has replaced it. The draft's own
// document is committed exactly when its base is current and Commit
// rebuilds it; the watcher is not sent its own commit.
func TestCommitDraftMatchesCommit(t *testing.T) {
	const docs = 1200
	for _, seed := range []int64{48, time.Now().UnixNano()} {
		r := rand.New(rand.NewSource(seed))
		var current, took int
		for i := 0; i < docs; i++ {
			viaDraft, viaCommit := NewStore(), NewStore()
			doc := randDoc(r, 2)
			doc["n"] = []any{int64(0), int64(1), 0.0}[r.Intn(3)]
			if r.Intn(4) == 0 {
				// Dotted keys a draft may change, replace or delete;
				// no path randPath draws splits to one, so no two
				// changes share a path.
				doc["d.x"] = randValue(r, 1)
				if m, ok := doc["k0"].(map[string]any); ok {
					m["d.x"] = randValue(r, 1)
				}
			}
			doc.SetMeta(Meta{Type: "Thing", Name: "T", Attach: []string{"x"}})
			if err := viaDraft.Create(doc); err != nil {
				t.Fatal(err)
			}
			if err := viaCommit.Create(doc); err != nil {
				t.Fatal(err)
			}
			w := viaDraft.WatchName("T")
			base, _, _ := viaDraft.View("T")
			d := NewDraft(base)
			randEdit(r, d)
			drafted, changes := d.view(), d.Changes()
			// Every other draft is committed after another writer's
			// commit: stale, if that commit changed anything.
			stale := false
			if i%2 == 1 {
				between := randChanges(r, base)
				u, err := viaDraft.Commit("T", between)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := viaCommit.Commit("T", between); err != nil {
					t.Fatal(err)
				}
				stale = len(u.Changes) > 0
			}

			got, err := w.CommitDraft("T", d, changes)
			if err != nil {
				t.Fatal(err)
			}
			want, err := viaCommit.Commit("T", changes)
			if err != nil {
				t.Fatal(err)
			}
			ctx := fmt.Sprintf("seed %d doc %d (stale %v):\nbase    %#v\ndrafted %#v\nchanges %v", seed, i, stale, base, drafted, changes)
			if !reflect.DeepEqual(got.Changes, want.Changes) {
				t.Fatalf("%s\nCommitDraft reported %v\nCommit reported      %v", ctx, got.Changes, want.Changes)
			}
			if got.Gen != want.Gen || viaDraft.Gen() != viaCommit.Gen() {
				t.Fatalf("%s\ngenerations: CommitDraft %d (store %d), Commit %d (store %d)", ctx, got.Gen, viaDraft.Gen(), want.Gen, viaCommit.Gen())
			}
			next, _, _ := viaDraft.View("T")
			ref, _, _ := viaCommit.View("T")
			if !same(next, ref) || !sameMap(next, got.Doc) {
				t.Fatalf("%s\nCommitDraft made %#v\nCommit made      %#v", ctx, next, ref)
			}
			if len(changes) > 0 {
				wantTook := !stale && same(drafted, ref)
				if sameMap(next, drafted) != wantTook {
					t.Fatalf("%s\nthe draft's own document committed: %v, want %v", ctx, !wantTook, wantTook)
				}
				if !stale {
					current++
				}
				if wantTook {
					took++
				}
			}
			if !sameMap(d.base, next) || d.doc != nil {
				t.Fatalf("%s\nthe draft was not rebased on the new version", ctx)
			}
			w.q.Push(Update{Name: "sentinel"})
			for u := range w.C {
				if u.Name == "sentinel" {
					break
				}
				if len(got.Changes) > 0 && u.Gen == got.Gen {
					t.Fatalf("%s\nthe committing watcher was sent its own commit", ctx)
				}
			}
			w.Close()
		}
		t.Logf("seed %d: %d of %d drafts with a current base committed as they stood", seed, took, current)
		if took == 0 || took == current {
			t.Fatalf("seed %d: %d of %d current drafts committed as they stood: the inputs miss a case", seed, took, current)
		}
	}
}

// A draft kept past CommitDraft writes only to copies of its own: a
// reader of the committed version, concurrent with those writes, sees
// it unchanged (and -race sees no shared map).
func TestDraftKeptPastCommitDraftCannotReachTheCommit(t *testing.T) {
	s := storeWithLamp(t)
	w := s.WatchName("L1")
	defer w.Close()
	for _, stale := range []bool{false, true} {
		base, _, _ := s.View("L1")
		d := NewDraft(base)
		d.Set("power.status", fmt.Sprint("dim ", stale))
		d.Set("extra.stale", stale)
		changes := d.Changes()
		if stale {
			if _, err := s.Commit("L1", []Change{{Op: OpSet, Path: "other.x", New: true}}); err != nil {
				t.Fatal(err)
			}
		}
		u, err := w.CommitDraft("L1", d, changes)
		if err != nil || len(u.Changes) != len(changes) {
			t.Fatalf("CommitDraft: %v, changes %v", err, u.Changes)
		}
		frozen := u.Doc.DeepCopy()
		done := make(chan bool)
		go func() {
			same := true
			for i := 0; i < 200; i++ {
				v, _, _ := s.View("L1")
				same = same && reflect.DeepEqual(v, frozen)
			}
			done <- same
		}()
		for i := 0; i < 50; i++ {
			d.Set("power.status", fmt.Sprintf("scribble%d", i))
			d.Set("extra.n", int64(i))
			d.Merge(map[string]any{"extra": map[string]any{"m": true}, "other": nil})
			d.Delete("meta.name")
		}
		if !<-done {
			t.Fatalf("stale %v: a reader saw the kept draft's writes in the committed version", stale)
		}
		if !reflect.DeepEqual(u.Doc, frozen) {
			t.Fatalf("stale %v: the kept draft reached the committed version:\nnow %v\nwas %v", stale, u.Doc, frozen)
		}
	}
}

// A commit costs its own model's watchers, not the store's.
func TestBroadcastReachesOnlyNamedWatchers(t *testing.T) {
	patchCost := func(s *Store) (ns float64, allocs float64) {
		v := false
		patch := func() {
			v = !v
			if _, err := s.Patch("L1", map[string]any{"on": v}); err != nil {
				t.Fatal(err)
			}
		}
		const n = 2000
		start := time.Now()
		for i := 0; i < n; i++ {
			patch()
		}
		return float64(time.Since(start).Nanoseconds()) / n, testing.AllocsPerRun(200, patch)
	}
	alone, crowded := storeWithLamp(t), storeWithLamp(t)
	others := make([]*Watcher, 1000)
	for i := range others {
		others[i] = crowded.WatchName(fmt.Sprintf("other%d", i))
		defer others[i].Close()
	}
	// Both readings only ever err high (a busy host, another test's
	// goroutines still allocating), so the best of a few attempts decides.
	var ns, allocs float64
	for attempt := 0; attempt < 10; attempt++ {
		baseNs, baseAllocs := patchCost(alone)
		withNs, withAllocs := patchCost(crowded)
		if ns, allocs = withNs/baseNs, withAllocs/baseAllocs; ns <= 1.1 && allocs <= 1.1 {
			break
		}
	}
	if ns > 1.1 || allocs > 1.1 {
		t.Errorf("with 1000 watchers on other names Patch costs %.2f× the time and %.2f× the allocations", ns, allocs)
	}
	// Deliveries are asynchronous; a sentinel pushed behind them shows
	// the queue held nothing else.
	for i, w := range others {
		w.q.Push(Update{Name: "sentinel"})
		if u := <-w.C; u.Name != "sentinel" {
			t.Fatalf("watcher %d of another name received an update of %q", i, u.Name)
		}
	}
}

// Re-indexing while writers commit: a name in the set before and after
// SetNames loses no update, and a name taken out receives none of the
// commits made after SetNames returned.
func TestSetNamesUnderConcurrentCommits(t *testing.T) {
	s := NewStore()
	for _, name := range []string{"keep", "drop", "other"} {
		d := Doc{}
		d.SetMeta(Meta{Type: "Thing", Name: name})
		if err := s.Create(d); err != nil {
			t.Fatal(err)
		}
	}
	w := s.WatchNames("keep", "drop")
	defer w.Close()

	const writers, each, flips = 8, 100, 200
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := s.Apply("keep", func(d *Draft) error {
					n, _ := d.GetInt("n")
					d.Set("n", n+1)
					return nil
				}); err != nil {
					t.Error(err)
				}
				if _, err := s.Commit("other", []Change{{Op: OpSet, Path: "n", New: int64(j)}}); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	commitDrop := func(n int) {
		if _, err := s.Commit("drop", []Change{{Op: OpSet, Path: "n", New: int64(n)}}); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < flips; i++ {
		w.SetNames("drop", "keep", "keep")
		commitDrop(2 * i) // watched: delivered
		w.SetNames("keep", "other")
		commitDrop(2*i + 1) // not watched: not delivered
		w.SetNames("keep")
	}
	wg.Wait()

	var keepN, dropN int64
	for keepN < writers*each || dropN < flips {
		select {
		case u := <-w.C:
			v, _ := u.Doc.GetInt("n")
			switch u.Name {
			case "keep":
				if keepN++; v != keepN {
					t.Fatalf("update %d of keep carries n=%d", keepN, v)
				}
			case "drop":
				if v != 2*dropN {
					t.Fatalf("update %d of drop carries n=%d, want %d", dropN, v, 2*dropN)
				}
				dropN++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("received %d of %d keep updates and %d of %d drop updates", keepN, writers*each, dropN, flips)
		}
	}
	w.q.Push(Update{Name: "sentinel"})
	for u := range w.C {
		if u.Name == "sentinel" {
			break
		}
		if u.Name != "other" {
			t.Fatalf("a surplus update of %q (n=%v) followed the expected ones", u.Name, u.Doc["n"])
		}
	}
}
