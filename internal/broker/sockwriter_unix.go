//go:build unix

package broker

import "syscall"

// newSockWriter asks the conn for its descriptor. try writes to it
// without blocking; a write the kernel refuses (EAGAIN) marks the
// session blocked, and the runtime's poller waits for room.
func newSockWriter(s *session) *sockWriter {
	w := &sockWriter{s: s}
	if sc, ok := s.conn.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			w.raw = raw
		}
	}
	w.try = func(fd uintptr) bool {
		for len(w.p) > 0 {
			n, err := syscall.Write(int(fd), w.p)
			switch err {
			case nil:
				w.p = w.p[n:]
			case syscall.EINTR:
			case syscall.EAGAIN:
				w.s.block()
				return false
			default:
				w.err = err
				return true
			}
		}
		return true
	}
	return w
}
