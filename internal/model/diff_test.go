package model

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// ApplyChanges replays a diff onto a document, producing the document
// the diff was computed against: the reference Commit is checked
// against.
func (d Doc) ApplyChanges(changes []Change) {
	for _, c := range changes {
		switch c.Op {
		case OpDelete:
			d.Delete(c.Path)
		default:
			d.Set(c.Path, copyValue(c.New))
		}
	}
}

// ApplyChanges gives a draft what Doc.ApplyChanges makes of a deep
// copy of it, written back one whole top-level value at a time, so the
// reference does not rest on the draft's path copying.
func (d *Draft) ApplyChanges(changes []Change) {
	full := d.Copy()
	full.ApplyChanges(changes)
	for k := range d.view() {
		if _, ok := full[k]; !ok {
			d.Delete(k)
		}
	}
	for k, v := range full {
		d.Set(k, v)
	}
}

// refDiff is the key-union implementation Diff replaced, kept as the
// oracle: same changes, same order, for any pair of documents.
func refDiff(old, new Doc) []Change {
	var out []Change
	refDiffValue("", map[string]any(old), map[string]any(new), &out)
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func refDiffValue(prefix string, old, new any, out *[]Change) {
	om, ook := asMap(old)
	nm, nok := asMap(new)
	if ook && nok {
		keys := map[string]struct{}{}
		for k := range om {
			keys[k] = struct{}{}
		}
		for k := range nm {
			keys[k] = struct{}{}
		}
		for k := range keys {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			ov, oHas := om[k]
			nv, nHas := nm[k]
			switch {
			case !oHas:
				addLeaves(p, nv, out)
			case !nHas:
				*out = append(*out, Change{Op: OpDelete, Path: p, Old: copyValue(ov)})
			default:
				refDiffValue(p, ov, nv, out)
			}
		}
		return
	}
	if !equalValue(old, new) {
		*out = append(*out, Change{Op: OpSet, Path: prefix, Old: copyValue(old), New: copyValue(new)})
	}
}

// randValue draws from the whole dynamic domain: scalars of every
// type, sequences, and maps (empty ones included) down to depth.
func randValue(r *rand.Rand, depth int) any {
	n := 7
	if depth > 0 {
		n = 9
	}
	switch r.Intn(n) {
	case 0:
		return int64(r.Intn(4))
	case 1:
		return float64(r.Intn(4)) // equal to the int64 spelling under scalarEqual
	case 2:
		return r.Intn(2) == 0
	case 3:
		return fmt.Sprintf("s%d", r.Intn(4))
	case 4:
		return nil
	case 5:
		seq := make([]any, r.Intn(3))
		for i := range seq {
			seq[i] = randValue(r, 0)
		}
		return seq
	case 6:
		return map[string]any{}
	default:
		return map[string]any(randDoc(r, depth-1))
	}
}

func randDoc(r *rand.Rand, depth int) Doc {
	d := Doc{}
	for i, n := 0, r.Intn(5); i < n; i++ {
		d[fmt.Sprintf("k%d", r.Intn(6))] = randValue(r, depth)
	}
	return d
}

// mutate edits a copy of d in place: sets, deletes, additions, maps
// emptied, and values replaced by another type.
func mutate(r *rand.Rand, v map[string]any, depth int) {
	for k, val := range v {
		switch r.Intn(6) {
		case 0:
			delete(v, k)
		case 1:
			v[k] = randValue(r, depth) // may change the type
		case 2:
			if m, ok := val.(map[string]any); ok {
				mutate(r, m, depth-1)
			}
		}
	}
	if r.Intn(3) == 0 {
		v[fmt.Sprintf("k%d", r.Intn(8))] = randValue(r, depth)
	}
}

func TestDiffMatchesKeyUnionReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	changed := 0
	for i := 0; i < 5000; i++ {
		old := randDoc(r, 3)
		new := old.DeepCopy()
		if i%10 != 0 { // every tenth pair stays equal
			mutate(r, new, 3)
		}
		if i%7 == 0 {
			new = randDoc(r, 3) // unrelated documents
		}
		want, got := refDiff(old, new), Diff(old, new)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		changed++
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("pair %d:\nold %v\nnew %v\nwant %v\ngot  %v", i, old, new, want, got)
		}
		replayed := old.DeepCopy()
		replayed.ApplyChanges(got)
		if !Equal(replayed, new) {
			t.Fatalf("pair %d: applying the diff to old gives %v, want %v", i, replayed, new)
		}
	}
	if changed < 3000 {
		t.Fatalf("only %d of 5000 pairs differed: the generator is too tame to test anything", changed)
	}
}

func TestDiffOfEqualDocsAllocatesNothing(t *testing.T) {
	d := benchDoc()
	d.Set("deep.a.b.c", int64(1))
	d.Set("deep.a.empty", map[string]any{})
	same := d.DeepCopy()
	if n := testing.AllocsPerRun(100, func() {
		if c := Diff(d, same); c != nil {
			t.Fatalf("diff of equal documents = %v", c)
		}
	}); n != 0 {
		t.Errorf("Diff(d, d.DeepCopy()) allocates %v times, want 0", n)
	}
}
