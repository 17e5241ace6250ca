package swarm

import (
	"os"
	"testing"

	"repro/internal/vet/leakcheck"
)

// TestMain fails the package if any test leaks a goroutine (a failover
// that outlives its pool, a stuck bridge forward).
func TestMain(m *testing.M) {
	os.Exit(leakcheck.Main(m))
}
