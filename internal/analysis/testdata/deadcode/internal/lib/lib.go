// Package lib is reached by the fixture's main package and facade.
package lib

// Live is called by main; live is reached through it.
func Live() { live() }

func live() {}

// FromFacade is called only from the root facade.
func FromFacade() {}

func DeadExported() {} // want `func DeadExported is reached by no main package`

// deadHead and deadTail are a chain nothing reaches: both are reported.
func deadHead() { deadTail() } // want `func deadHead`

func deadTail() {} // want `func deadTail`

type deadType struct{} // want `type deadType`

// Failure is converted to error in main: its Error method is kept by
// interface satisfaction with no call, but Detail is not.
type Failure struct{}

func (Failure) Error() string { return "failure" }

func (Failure) Detail() string { return "" } // want `method Failure.Detail`

// Kept has no program caller; the directive below keeps it, and what
// it uses (keptCallee) counts as reached.
//
//dbox:allow deadcode -- another package's tests call it
func Kept() { keptCallee() }

func keptCallee() {}
