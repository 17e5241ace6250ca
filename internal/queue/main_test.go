package queue

import (
	"os"
	"testing"

	"repro/internal/vet/leakcheck"
)

// TestMain fails the package if any test leaks a goroutine (a pump
// that outlives its drained or closed queue).
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
