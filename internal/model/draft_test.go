package model

import (
	"reflect"
	"testing"
)

// fuzzInput decodes a fuzz input one byte at a time; an exhausted
// input reads as zeros.
type fuzzInput []byte

func (in *fuzzInput) pick(n int) int {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return int(b) % n
}

func (in *fuzzInput) key() string { return []string{"a", "b", "c", "d"}[in.pick(4)] }

// path is one to three keys deep.
func (in *fuzzInput) path() string {
	p := in.key()
	for i := in.pick(3); i > 0; i-- {
		p += "." + in.key()
	}
	return p
}

// value draws from the document domain. Small numbers come spelled as
// int64 or as float64, so equal values of either spelling meet.
func (in *fuzzInput) value(depth int) any {
	kinds := 5
	if depth > 0 {
		kinds = 7
	}
	switch in.pick(kinds) {
	case 0:
		return int64(in.pick(3))
	case 1:
		return float64(in.pick(3))
	case 2:
		return in.pick(2) == 0
	case 3:
		return []string{"x", "y"}[in.pick(2)]
	case 4:
		return nil
	case 5:
		m := map[string]any{}
		for i := in.pick(4); i > 0; i-- {
			m[in.key()] = in.value(depth - 1)
		}
		return m
	default:
		s := make([]any, in.pick(3))
		for i := range s {
			s[i] = in.value(depth - 1)
		}
		return s
	}
}

// patch is a merge patch: its nil values delete.
func (in *fuzzInput) patch(depth int) map[string]any {
	p := map[string]any{}
	for i := 1 + in.pick(3); i > 0; i-- {
		if depth > 0 && in.pick(3) == 0 {
			p[in.key()] = in.patch(depth - 1)
		} else {
			p[in.key()] = in.value(1)
		}
	}
	return p
}

// draftOp is one write, made to a Draft and, as the reference, to a
// plain Doc.
type draftOp struct {
	kind  int // 0 Set, 1 Delete, 2 Merge, 3 SetIntent, 4 SetMeta, 5 restore
	path  string
	value any
	patch map[string]any
	meta  Meta
}

func (in *fuzzInput) op() draftOp {
	op := draftOp{kind: in.pick(6), path: in.path()}
	switch op.kind {
	case 0, 3:
		op.value = in.value(2)
	case 2:
		op.patch = in.patch(2)
	case 4:
		op.meta = Meta{Type: "T", Name: in.key(), Managed: in.pick(2) == 0,
			Attach: []string{in.key()}, Config: map[string]any{in.key(): in.value(1)}}
	}
	return op
}

// refMerge is the in-place deep merge Draft.Merge is checked against.
func refMerge(dst, patch map[string]any) {
	for k, pv := range patch {
		if pv == nil {
			delete(dst, k)
			continue
		}
		pm, pok := asMap(pv)
		dm, dok := asMap(dst[k])
		if pok && dok {
			refMerge(dm, pm)
		} else if pok {
			fresh := map[string]any{}
			refMerge(fresh, pm)
			dst[k] = fresh
		} else {
			dst[k] = normalize(copyValue(pv))
		}
	}
}

// FuzzDraft holds a Draft to a deep copy edited in place: the same
// writes leave the base as it was, Changes is Diff of the base and the
// copy, Store.Commit of those changes makes the copy, and nothing the
// writer passed in or got back reaches the base or the committed
// version afterwards.
func FuzzDraft(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 0, 2, 5, 0, 1, 3, 0, 0, 1})
	f.Add([]byte{0, 7, 2, 1, 6, 5, 3, 1, 1, 2, 4, 9, 0, 3, 2, 8, 1, 4, 4, 0, 1, 1})
	f.Add([]byte("a draft writes only the maps on its path, each once"))
	f.Add([]byte("800101200010010")) // a merge patch holding a list

	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		base := Doc{}
		for i := in.pick(5); i > 0; i-- {
			base.Set(in.path(), in.value(2))
		}
		base.SetMeta(Meta{Type: "T", Name: "n", Attach: []string{"c"}})
		pre := base.DeepCopy()
		ops := make([]draftOp, in.pick(8))
		for i := range ops {
			ops[i] = in.op()
		}

		d, ref := NewDraft(base), base.DeepCopy()
		var held []any // every composite passed in or got back
		for _, op := range ops {
			switch op.kind {
			case 0:
				d.Set(op.path, op.value)
				ref.Set(op.path, copyValue(op.value))
				held = append(held, op.value)
			case 1:
				if got, want := d.Delete(op.path), ref.Delete(op.path); got != want {
					t.Fatalf("Delete(%q) = %v, want %v", op.path, got, want)
				}
			case 2:
				d.Merge(op.patch)
				refMerge(ref, op.patch)
				held = append(held, op.patch)
			case 3:
				d.SetIntent(op.path, op.value)
				ref.Set(op.path+".intent", copyValue(op.value))
				held = append(held, op.value)
			case 4:
				d.SetMeta(op.meta)
				ref.SetMeta(op.meta)
				held = append(held, op.meta.Config)
			case 5:
				if v, ok := pre.Get(op.path); ok {
					d.Set(op.path, v)
					ref.Set(op.path, copyValue(v))
				}
			}
			got, gok := d.Get(op.path)
			want, wok := ref.Get(op.path)
			if gok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("Get(%q) = %v, %v; want %v, %v", op.path, got, gok, want, wok)
			}
			held = append(held, got)
		}
		if !reflect.DeepEqual(base, pre) {
			t.Fatalf("the writes changed the base:\nnow %v\nwas %v", base, pre)
		}
		if !reflect.DeepEqual(d.Copy(), ref) {
			t.Fatalf("draft %v\nwant  %v", d.Copy(), ref)
		}
		changes, want := d.Changes(), Diff(base, ref)
		if !reflect.DeepEqual(changes, want) {
			t.Fatalf("Changes() = %v\nDiff      = %v", changes, want)
		}
		for _, c := range changes {
			held = append(held, c.Old, c.New)
		}

		st := NewStore()
		if err := st.Create(base); err != nil {
			t.Fatal(err)
		}
		u, err := st.Commit("n", changes)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(u.Doc, ref) {
			t.Fatalf("Commit made %v\nwant        %v", u.Doc, ref)
		}
		committed, draft := u.Doc.DeepCopy(), d.Copy()
		for _, v := range held {
			scribble(v)
		}
		if !reflect.DeepEqual(base, pre) {
			t.Fatalf("a value passed in or got back reaches the base:\nnow %v\nwas %v", base, pre)
		}
		if !reflect.DeepEqual(u.Doc, committed) {
			t.Fatalf("a value passed in or got back reaches the committed version:\nnow %v\nwas %v", u.Doc, committed)
		}
		if !reflect.DeepEqual(d.Copy(), draft) {
			t.Fatalf("a value passed in or got back reaches the draft:\nnow %v\nwas %v", d.Copy(), draft)
		}
	})
}

// scribble writes into every map and list of v.
func scribble(v any) {
	switch t := v.(type) {
	case map[string]any:
		for _, e := range t {
			scribble(e)
		}
		t["scribble"] = true
	case []any:
		for i, e := range t {
			scribble(e)
			t[i] = "scribble"
		}
	}
}

// A draft kept past Store.Apply writes only to copies of its own: the
// version Apply committed does not change.
func TestDraftKeptPastApplyCannotReachTheCommit(t *testing.T) {
	s := storeWithLamp(t)
	var kept *Draft
	u, err := s.Apply("L1", func(d *Draft) error {
		d.Set("power.status", "off")
		d.Set("extra.n", int64(1))
		kept = d
		return nil
	})
	if err != nil || len(u.Changes) != 2 {
		t.Fatalf("Apply: %v, changes %v", err, u.Changes)
	}
	frozen := u.Doc.DeepCopy()
	kept.Set("power.status", "scribble")
	kept.Set("extra.n", int64(2))
	kept.Merge(map[string]any{"extra": map[string]any{"m": true}, "power": nil})
	kept.Delete("meta.name")
	if !reflect.DeepEqual(u.Doc, frozen) {
		t.Fatalf("the kept draft reached the committed version:\nnow %v\nwas %v", u.Doc, frozen)
	}
	if v, _, _ := s.View("L1"); !reflect.DeepEqual(v, frozen) {
		t.Fatalf("the store holds %v, want %v", v, frozen)
	}
}

// A draft that writes one path copies the maps on it and no other.
func TestDraftCopiesOnlyItsPath(t *testing.T) {
	base := Doc{
		"power": map[string]any{"intent": "on", "status": "on"},
		"other": map[string]any{"n": int64(1)},
		"meta":  map[string]any{"name": "L1", "type": "Lamp"},
	}
	d := NewDraft(base)
	d.Set("power.status", "off")
	d.Set("power.status", "dim")
	next := d.view()
	if sameMap(next, base) || sameMap(next["power"].(map[string]any), base["power"].(map[string]any)) {
		t.Fatal("a map on the written path is shared with the base")
	}
	for _, k := range []string{"other", "meta"} {
		if !sameMap(next[k].(map[string]any), base[k].(map[string]any)) {
			t.Errorf("%s was copied though nothing was written through it", k)
		}
	}
	if len(d.owned) != 1 {
		t.Errorf("the draft owns %d nested maps after two writes through one, want 1", len(d.owned))
	}
	if got := d.Changes(); len(got) != 1 || got[0].Path != "power.status" || got[0].New != "dim" {
		t.Errorf("Changes() = %v", got)
	}
}

// A key with a dot in it names one map; writing through it does not
// make the draft take the nested map its spelling suggests for its own.
func TestDraftOwnsMapsByIdentityNotPath(t *testing.T) {
	base := Doc{
		"a":   map[string]any{"b": map[string]any{"c": int64(1)}},
		"a.b": map[string]any{"x": int64(1)},
	}
	pre := base.DeepCopy()
	d := NewDraft(base)
	d.Merge(map[string]any{"a.b": map[string]any{"x": int64(2)}})
	d.Set("a.b.c", int64(2))
	if !reflect.DeepEqual(base, pre) {
		t.Fatalf("the base changed to %v", base)
	}
	if v, _ := d.GetInt("a.b.c"); v != 2 {
		t.Errorf("a.b.c = %d, want 2", v)
	}
}

// Handler-sized drafts cost one allocation until they write, and a
// one-path write costs the maps on the path, not the document.
func TestDraftAllocations(t *testing.T) {
	base := Doc{
		"triggered": false,
		"meta":      map[string]any{"name": "O1", "type": "Occupancy", "attach": []any{"x", "y"}},
	}
	if n := testing.AllocsPerRun(100, func() {
		d := NewDraft(base)
		_ = d.GetBool("triggered")
		_ = d.Changes()
	}); n > 1 {
		t.Errorf("reading a draft costs %v allocations, want at most 1", n)
	}
	read := testing.AllocsPerRun(100, func() { _ = NewDraft(base).Changes() })
	write := testing.AllocsPerRun(100, func() {
		d := NewDraft(base)
		d.Set("triggered", true)
	})
	if write-read > 3 {
		t.Errorf("a top-level write costs %v allocations over a read's %v, want at most 3", write, read)
	}
}
