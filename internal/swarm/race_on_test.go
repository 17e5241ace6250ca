//go:build race

package swarm

// raceEnabled gates assertions the race detector's runtime invalidates.
const raceEnabled = true
