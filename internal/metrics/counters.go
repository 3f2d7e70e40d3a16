package metrics

import "fmt"

// FaultCounters tallies fetch-reliability events of one crawl or
// simulation run: how many attempts the engine issued, how many were
// retries, how much work was wasted on failures, and how often the
// per-host circuit breakers intervened. Both engines expose one in
// their Result, and the fault-rate experiments report them alongside
// the harvest curves.
type FaultCounters struct {
	// Attempts is the total number of fetch attempts, including retries.
	Attempts int
	// Retries is the number of retries granted after a failed attempt,
	// booked when granted: a live retry cancelled during its backoff is
	// counted here and as a failure.
	Retries int
	// Failures is the number of URLs given up on permanently (retries
	// exhausted, retry budget spent, or dropped by an open breaker).
	Failures int
	// Truncated is the number of fetched pages whose body arrived cut
	// short of its full length.
	Truncated int
	// BreakerTrips is the number of closed→open breaker transitions
	// across all hosts.
	BreakerTrips int
	// BreakerSkips is the number of queue pops refused because the
	// URL's host had an open breaker.
	BreakerSkips int
	// WastedFetches is the number of attempts that consumed budget or
	// time without yielding a usable page.
	WastedFetches int
}

// Add accumulates o into f.
func (f *FaultCounters) Add(o FaultCounters) {
	f.Attempts += o.Attempts
	f.Retries += o.Retries
	f.Failures += o.Failures
	f.Truncated += o.Truncated
	f.BreakerTrips += o.BreakerTrips
	f.BreakerSkips += o.BreakerSkips
	f.WastedFetches += o.WastedFetches
}

// Any reports whether any counter is nonzero.
func (f FaultCounters) Any() bool { return f != FaultCounters{} }

// String renders the counters on one line for CLI summaries.
func (f FaultCounters) String() string {
	return fmt.Sprintf(
		"attempts=%d retries=%d failures=%d truncated=%d wasted=%d breaker-trips=%d breaker-skips=%d",
		f.Attempts, f.Retries, f.Failures, f.Truncated, f.WastedFetches, f.BreakerTrips, f.BreakerSkips)
}
