// Fixture: a suppressed import needs an explicit, reasoned directive.
package digi

import (
	//dbox:allow mathrand -- a documented exception keeps its reason next to the import
	"math/rand"
)

var _ = rand.Int
