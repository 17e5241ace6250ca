//go:build race

package broker

// raceEnabled gates assertions the race detector's runtime invalidates.
const raceEnabled = true
