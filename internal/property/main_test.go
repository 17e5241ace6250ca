package property

import (
	"os"
	"testing"

	"repro/internal/vet/leakcheck"
)

// TestMain fails the package if any test leaks a goroutine (a
// checker's monitor that outlives its Stop).
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
