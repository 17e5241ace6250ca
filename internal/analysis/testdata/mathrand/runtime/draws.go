// Fixture: loaded as a runtime package (repro/internal/digi), where a
// math/rand import is a second random source.
package digi

import (
	"math/big"
	"math/rand"           // want `math/rand imported in repro/internal/digi`
	_ "math/rand"         // want `math/rand imported`
	randv2 "math/rand/v2" // want `math/rand/v2 imported`
)

func draw() (int, uint64, *big.Int) {
	return rand.Intn(6), randv2.Uint64(), big.NewInt(1)
}
