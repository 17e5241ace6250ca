// Package fixture is the root facade: every declaration here is a root.
package fixture

import "fixture/internal/lib"

// Facade keeps lib.FromFacade alive without any main package naming it.
func Facade() { lib.FromFacade() }
