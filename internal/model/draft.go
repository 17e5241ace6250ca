package model

import (
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"unsafe"
)

// Draft is a writable view of one committed document: what a handler
// edits and what a Store.Apply callback is handed. Reads fall through
// to the committed version. A write copies only the maps on its path,
// each once, and shares every other subtree with the committed
// version, which it never modifies, so a draft costs what is written
// to it, not what the document holds.
//
// A draft exposes no map. A composite value Get returns is a copy, and
// one Set or Merge stores is copied in, so nothing a caller holds,
// before or after, can reach a committed document. A Draft is not safe
// for concurrent use.
type Draft struct {
	base  Doc              // the committed version: read, never written
	doc   Doc              // base's top level, cloned on the first write; nil before it
	owned []unsafe.Pointer // the nested maps this draft copied or made
	tops  []string         // the top-level keys written, in first-write order

	// Most drafts write one or two paths: no allocation beyond the Draft.
	ownedBuf [4]unsafe.Pointer
	topsBuf  [4]string
}

// NewDraft returns a draft of base. base is only read.
func NewDraft(base Doc) *Draft {
	return &Draft{base: base}
}

// Readable is a document Schema.Validate can read: a Doc, or a *Draft
// as it stands.
type Readable interface{ view() Doc }

func (d Doc) view() Doc { return d }

// view returns the document the draft stands for: read-only, since it
// may be the committed version itself.
func (d *Draft) view() Doc {
	if d.doc != nil {
		return d.doc
	}
	return d.base
}

// Get resolves a dotted path (see Doc.Get). A composite value is a
// copy.
func (d *Draft) Get(path string) (any, bool) {
	v, ok := d.view().Get(path)
	return copyValue(v), ok
}

// GetString returns the string at path, or "" if absent or mistyped.
func (d *Draft) GetString(path string) string { return d.view().GetString(path) }

// GetBool returns the bool at path, or false if absent or mistyped.
func (d *Draft) GetBool(path string) bool { return d.view().GetBool(path) }

// GetInt returns the integer at path (see Doc.GetInt).
func (d *Draft) GetInt(path string) (int64, bool) { return d.view().GetInt(path) }

// GetFloat returns the float at path (see Doc.GetFloat).
func (d *Draft) GetFloat(path string) (float64, bool) { return d.view().GetFloat(path) }

// Intent returns the "<field>.intent" value.
func (d *Draft) Intent(field string) (any, bool) { return d.Get(field + ".intent") }

// Status returns the "<field>.status" value.
func (d *Draft) Status(field string) (any, bool) { return d.Get(field + ".status") }

// Attach returns a copy of meta.attach.
func (d *Draft) Attach() []string { return d.view().Attach() }

// Copy returns a deep copy of the document the draft stands for.
//
//dbox:allow deadcode -- the scene tests and FuzzDraft assert whole documents with it
func (d *Draft) Copy() Doc { return d.view().DeepCopy() }

// Set writes a copy of v at a dotted path, creating intermediate maps
// as needed (see Doc.Set).
func (d *Draft) Set(path string, v any) {
	v = normalize(copyValue(v))
	cur := d.write(path)
	for {
		part, rest, more := strings.Cut(path, ".")
		if !more {
			cur[part] = v
			return
		}
		cur, path = d.child(cur, part), rest
	}
}

// Delete removes the value at a dotted path. It reports whether the
// path existed; if not, nothing is copied.
func (d *Draft) Delete(path string) bool {
	if _, ok := d.view().Get(path); !ok {
		return false
	}
	cur := d.write(path)
	for {
		part, rest, more := strings.Cut(path, ".")
		if !more {
			delete(cur, part)
			return true
		}
		cur, path = d.child(cur, part), rest
	}
}

// SetIntent writes "<field>.intent" (what a user or app asks for).
func (d *Draft) SetIntent(field string, v any) { d.Set(field+".intent", v) }

// SetStatus writes "<field>.status" (what the simulated device reports).
func (d *Draft) SetStatus(field string, v any) { d.Set(field+".status", v) }

// Merge deep-merges a copy of patch into the document: maps merge
// recursively, everything else (including sequences) replaces, and a
// nil patch value deletes the key, as JSON merge patch does, so
// "dbox edit" can remove fields.
func (d *Draft) Merge(patch map[string]any) {
	if len(patch) == 0 {
		return
	}
	top := d.write("")
	for k := range patch {
		d.wrote(k)
	}
	d.merge(top, patch)
}

func (d *Draft) merge(dst, patch map[string]any) {
	for k, pv := range patch {
		if pv == nil {
			delete(dst, k)
		} else if pm, ok := asMap(pv); ok {
			d.merge(d.child(dst, k), pm)
		} else {
			dst[k] = normalize(copyValue(pv))
		}
	}
}

// SetMeta writes the meta section, preserving unknown config keys
// already present in the document.
//
//dbox:allow deadcode -- FuzzDraft writes meta sections with it
func (d *Draft) SetMeta(m Meta) {
	writeMeta(d.child(d.write(metaKey), metaKey), m)
}

// Changes returns the diff from the committed version to the draft:
// what Diff reports, computed over the written top-level keys only,
// since every other subtree is shared.
func (d *Draft) Changes() []Change {
	var out []Change
	for _, k := range d.tops {
		ov, had := d.base[k]
		nv, has := d.doc[k]
		switch {
		case !has && had:
			out = append(out, Change{Op: OpDelete, Path: k, Old: copyValue(ov)})
		case !had && has:
			addLeaves(k, nv, &out)
		case has:
			diffValue(k, ov, nv, &out)
		}
	}
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	}
	return out
}

// apply writes a change list: a set writes a copy of Change.New, a
// delete of an absent path does nothing.
func (d *Draft) apply(changes []Change) {
	for _, c := range changes {
		if c.Op == OpDelete {
			d.Delete(c.Path)
		} else {
			d.Set(c.Path, c.New)
		}
	}
}

// replays reports whether apply(Changes()) on the base rebuilds the
// draft's document exactly, so the store may commit that document in
// place of the replay. Two writes are not rebuilt by their changes: a
// value replaced by one Equal to it of another type or sign (int64 2
// by float64 2, 0 by -0), which Diff omits, and a changed or added key
// that holds a dot, which the change's path splits.
func (d *Draft) replays() bool {
	for _, k := range d.tops {
		ov, had := d.base[k]
		nv, has := d.doc[k]
		if !replaysKey(k, ov, nv, had, has) {
			return false
		}
	}
	return true
}

// replaysKey is replays for one key, with its old and new values and
// whether the key is there before and after.
func replaysKey(k string, ov, nv any, had, has bool) bool {
	dotted := strings.Contains(k, ".")
	switch {
	case !has:
		return !had || !dotted // a delete at k's path
	case !had:
		return !dotted && plainKeys(nv) // an addition, leaf by leaf
	case identical(ov, nv):
		return true
	}
	if equalValue(ov, nv) || dotted {
		return false
	}
	om, ook := asMap(ov)
	nm, nok := asMap(nv)
	if !ook || !nok {
		return true // one set of nv
	}
	for k, ov := range om {
		nv, has := nm[k]
		if !replaysKey(k, ov, nv, true, has) {
			return false
		}
	}
	for k, nv := range nm {
		if _, had := om[k]; !had && !replaysKey(k, nil, nv, false, true) {
			return false
		}
	}
	return true
}

// plainKeys reports whether no map within v has a key holding a dot.
func plainKeys(v any) bool {
	m, _ := asMap(v)
	for k, x := range m {
		if strings.Contains(k, ".") || !plainKeys(x) {
			return false
		}
	}
	return true
}

// identical is deep equality that, unlike Equal, tells number types
// and the sign of zero apart.
func identical(a, b any) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		if mapID(x) == mapID(y) {
			return true
		}
		for k, v := range x {
			if w, has := y[k]; !has || !identical(v, w) {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !identical(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(a, b)
}

// seal returns the document the draft stands for and its Changes, for
// the store to commit, and rebases the draft on that document: a
// caller that kept the draft and writes it later copies again, so it
// cannot reach what was committed.
func (d *Draft) seal() (Doc, []Change) {
	doc, changes := d.view(), d.Changes()
	*d = Draft{base: doc}
	return doc, changes
}

// write returns the draft's top-level map, cloning the committed one
// on the first write, and notes path's top-level key as written.
func (d *Draft) write(path string) map[string]any {
	if d.doc == nil {
		d.doc = maps.Clone(d.base)
		if d.doc == nil {
			d.doc = Doc{}
		}
	}
	if path != "" {
		top, _, _ := strings.Cut(path, ".")
		d.wrote(top)
	}
	return d.doc
}

func (d *Draft) wrote(key string) {
	if !slices.Contains(d.tops, key) {
		if d.tops == nil {
			d.tops = d.topsBuf[:0]
		}
		d.tops = append(d.tops, key)
	}
}

// child returns parent[key] as a map the draft owns: the map already
// there if the draft copied or made it, else a copy of it, else (where
// key holds no map) a new one. parent is the draft's own.
func (d *Draft) child(parent map[string]any, key string) map[string]any {
	m, ok := parent[key].(map[string]any)
	if ok && slices.Contains(d.owned, mapID(m)) {
		return m
	}
	if ok {
		m = maps.Clone(m)
	} else {
		m = map[string]any{}
	}
	parent[key] = m
	if d.owned == nil {
		d.owned = d.ownedBuf[:0]
	}
	d.owned = append(d.owned, mapID(m))
	return m
}

// mapID is a map's identity: the address of its header. Maps are
// compared by identity, not by path, since a key may contain a dot.
func mapID(m map[string]any) unsafe.Pointer { return reflect.ValueOf(m).UnsafePointer() }
