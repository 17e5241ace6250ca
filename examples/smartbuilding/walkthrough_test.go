package main

import (
	"io"
	"testing"
)

// walkthrough runs the example's drive on a fresh testbed and returns
// the property violations it reports.
func walkthrough(t *testing.T, manageLights bool) []string {
	t.Helper()
	tb, err := setUp(t.TempDir(), manageLights)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Stop()
	v, err := drive(tb, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, x := range v {
		names = append(names, x.Property)
	}
	return names
}

// The walkthrough keeps its scene property: the room switches the lamp
// off when it empties, within the property's bound.
func TestWalkthroughKeepsNoLightInEmptyRoom(t *testing.T) {
	if v := walkthrough(t, true); len(v) != 0 {
		t.Fatalf("property violations: %v", v)
	}
}

// The negative control: a room that leaves its lamp alone breaks the
// property, so the property is not vacuous.
func TestUnmanagedLightsBreakTheProperty(t *testing.T) {
	v := walkthrough(t, false)
	if len(v) != 1 || v[0] != noLightInEmptyRoom.Name {
		t.Fatalf("property violations %v, want one of %s", v, noLightInEmptyRoom.Name)
	}
}
