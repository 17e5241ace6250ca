// Fixture: test files draw fuzz-style inputs and are exempt.
package digi

import "math/rand"

var _ = rand.New(rand.NewSource(1))
