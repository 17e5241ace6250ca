package model

import (
	"fmt"
	"sort"
	"strings"
)

// ChangeOp classifies one element of a document diff.
type ChangeOp string

const (
	OpSet    ChangeOp = "set"    // value added or replaced
	OpDelete ChangeOp = "delete" // value removed
)

// Change is one leaf-level difference between two documents, addressed
// by dotted path. Changes drive the trace log (§3.5) and the
// scene-property checker.
type Change struct {
	Op   ChangeOp
	Path string
	Old  any // previous value (nil for pure additions)
	New  any // new value (nil for deletions)
}

func (c Change) String() string {
	switch c.Op {
	case OpDelete:
		return fmt.Sprintf("delete %s (was %v)", c.Path, c.Old)
	default:
		return fmt.Sprintf("set %s=%v", c.Path, c.New)
	}
}

// Diff computes the leaf-level changes that transform old into new.
// Paths are reported in sorted order for deterministic logs. Equal
// documents (and equal subtrees of unequal ones) cost no allocation.
//
//dbox:allow deadcode -- the model tests and FuzzDraft hold Draft.Changes and Store.Commit to it; the scene tests report with it
func Diff(old, new Doc) []Change {
	var out []Change
	diffValue("", map[string]any(old), map[string]any(new), &out)
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	}
	return out
}

func diffValue(prefix string, old, new any, out *[]Change) {
	om, ook := asMap(old)
	nm, nok := asMap(new)
	if !ook || !nok {
		if !equalValue(old, new) {
			*out = append(*out, Change{Op: OpSet, Path: prefix, Old: copyValue(old), New: copyValue(new)})
		}
		return
	}
	// A key's path is built only once the key is known to differ.
	for k, ov := range om {
		if nv, has := nm[k]; !has {
			*out = append(*out, Change{Op: OpDelete, Path: joinPath(prefix, k), Old: copyValue(ov)})
		} else if !equalValue(ov, nv) {
			diffValue(joinPath(prefix, k), ov, nv, out)
		}
	}
	for k, nv := range nm {
		if _, has := om[k]; !has {
			addLeaves(joinPath(prefix, k), nv, out)
		}
	}
}

func joinPath(prefix, key string) string {
	if prefix == "" {
		return key
	}
	return prefix + "." + key
}

// addLeaves records additions; composite additions are flattened into
// leaf paths so every change is a scalar observation.
func addLeaves(prefix string, v any, out *[]Change) {
	if m, ok := asMap(v); ok {
		if len(m) == 0 {
			*out = append(*out, Change{Op: OpSet, Path: prefix, New: map[string]any{}})
			return
		}
		for k, val := range m {
			addLeaves(prefix+"."+k, val, out)
		}
		return
	}
	*out = append(*out, Change{Op: OpSet, Path: prefix, New: copyValue(v)})
}

// Flatten renders a document as leaf path -> value pairs ("power.status"
// -> "on"). Digis log this snapshot when they start so traces are
// self-contained: a replayer or offline checker reconstructs initial
// state without access to the original testbed.
func Flatten(d Doc) map[string]any {
	var changes []Change
	diffValue("", map[string]any{}, map[string]any(d), &changes)
	out := make(map[string]any, len(changes))
	for _, c := range changes {
		out[c.Path] = c.New
	}
	return out
}

// PathsUnder returns the subset of changes whose path equals prefix or
// lies beneath it ("power" matches "power.status").
func PathsUnder(changes []Change, prefix string) []Change {
	var out []Change
	for _, c := range changes {
		if rest, ok := strings.CutPrefix(c.Path, prefix); ok && (rest == "" || rest[0] == '.') {
			out = append(out, c)
		}
	}
	return out
}
