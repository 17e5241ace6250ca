//go:build !unix

package broker

// newSockWriter has no descriptor to ask off unix: every write counts
// as blocked for its whole length.
func newSockWriter(s *session) *sockWriter { return &sockWriter{s: s} }
