// Command tool is the fixture's one main package: all of it is a root.
package main

import "fixture/internal/lib"

func main() {
	lib.Live()
	var err error = lib.Failure{}
	_ = err
	helper()
}

// helper is unexported and called by nothing but main, which is enough.
func helper() {}

// orphan is never called, but every func of a main package is a root.
func orphan() {}
