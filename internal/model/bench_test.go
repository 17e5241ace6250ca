package model

import (
	"fmt"
	"testing"
)

func benchDoc() Doc {
	d := Doc{}
	d.SetMeta(Meta{Type: "Lamp", Version: "v1", Name: "L1", Managed: true, Attach: []string{"a", "b"}})
	d.Set("power", map[string]any{"intent": "on", "status": "off"})
	d.Set("intensity", map[string]any{"intent": 0.2, "status": 0.4})
	d.Set("labels", []any{"x", "y", "z"})
	return d
}

func BenchmarkDocDeepCopy(b *testing.B) {
	d := benchDoc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = d.DeepCopy()
	}
}

func BenchmarkDocGetSet(b *testing.B) {
	d := benchDoc()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Set("power.status", i%2 == 0)
		if _, ok := d.Get("power.status"); !ok {
			b.Fatal("lost path")
		}
	}
}

func BenchmarkDiffSmallChange(b *testing.B) {
	old := benchDoc()
	new := old.DeepCopy()
	new.Set("power.status", "on")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c := Diff(old, new); len(c) != 1 {
			b.Fatalf("changes = %d", len(c))
		}
	}
}

func BenchmarkStoreApply(b *testing.B) {
	s := NewStore()
	if err := s.Create(benchDoc()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Apply("L1", func(d *Draft) error {
			d.Set("counter", i)
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreApplyWithWatchers measures the commit path under the
// watcher fan-out load a 1000-digi testbed puts on the store.
func BenchmarkStoreApplyWithWatchers(b *testing.B) {
	for _, watchers := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("watchers=%d", watchers), func(b *testing.B) {
			s := NewStore()
			if err := s.Create(benchDoc()); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < watchers; i++ {
				defer s.WatchName(fmt.Sprintf("other-%d", i)).Close()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Apply("L1", func(d *Draft) error {
					d.Set("counter", i)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSchemaValidate(b *testing.B) {
	s := lampSchema()
	d := s.New("L1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Validate(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreCommit(b *testing.B) {
	s := NewStore()
	if err := s.Create(benchDoc()); err != nil {
		b.Fatal(err)
	}
	changes := []Change{{Op: OpSet, Path: "power.status"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		changes[0].New = i%2 == 0
		if _, err := s.Commit("L1", changes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkViewDuringCommits measures the read path a scene's children
// take while their scene commits: parallel View and Gen readers over
// 50 models, one writer committing to them round-robin throughout.
func BenchmarkViewDuringCommits(b *testing.B) {
	const models = 50
	s := NewStore()
	names := make([]string, models)
	for i := range names {
		names[i] = fmt.Sprintf("L%02d", i)
		d := benchDoc()
		d.SetMeta(Meta{Type: "Lamp", Version: "v1", Name: names[i]})
		if err := s.Create(d); err != nil {
			b.Fatal(err)
		}
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		changes := []Change{{Op: OpSet, Path: "power.status"}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			changes[0].New = i%2 == 0
			if _, err := s.Commit(names[i%models], changes); err != nil {
				panic(err)
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, _, ok := s.View(names[i%models]); !ok || s.Gen() == 0 {
				panic("lost a model")
			}
			i++
		}
	})
	b.StopTimer()
	close(stop)
	<-done
}
