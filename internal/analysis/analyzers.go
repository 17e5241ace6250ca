package analysis

// All returns every analyzer in the multichecker, in catalogue order.
func All() []*Analyzer {
	return []*Analyzer{Wallclock, Errwrap, Metricname, Sleepytest, Mathrand, Deadcode}
}
