// Fixture: loaded as the benchmark harness (repro/bench), whose load
// generators may use math/rand.
package bench

import "math/rand"

var _ = rand.Intn
