package lib

import (
	"testing"

	"fixture/internal/libtest"
)

// Tests are not roots: calling DeadExported here does not keep it.
func TestLib(t *testing.T) {
	DeadExported()
	libtest.Check(t)
}
