// Package libtest is test support: only _test.go files import it, so
// nothing in it is reported although no program reaches it.
package libtest

import "testing"

// Check is a test helper.
func Check(t *testing.T) { t.Helper() }
