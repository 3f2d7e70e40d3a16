package faults

import (
	"slices"
	"testing"

	"langcrawl/internal/metrics"
)

// TestPolicyRestoreRebooksRetries resumes a policy whose counters carry
// retries already spent: they come off the crawl-wide budget, and a run
// that overspent it stays at zero rather than turning unlimited.
func TestPolicyRestoreRebooksRetries(t *testing.T) {
	for _, tc := range []struct{ spent, left int }{{0, 3}, {2, 1}, {3, 0}, {5, 0}} {
		c := metrics.FaultCounters{Retries: tc.spent}
		p := NewPolicy(RetryPolicy{MaxAttempts: 9, Budget: 3}, BreakerConfig{}, nil, &c, nil)
		p.Restore(nil)
		granted := 0
		for p.Retry("h", 1, 0) && granted <= 3 {
			granted++
		}
		if granted != tc.left {
			t.Errorf("spent %d of 3: %d retries granted after restore, want %d", tc.spent, granted, tc.left)
		}
		if c.Retries != tc.spent+granted {
			t.Errorf("spent %d: counters book %d retries, want %d", tc.spent, c.Retries, tc.spent+granted)
		}
	}
	var c metrics.FaultCounters
	if NewPolicy(RetryPolicy{}, BreakerConfig{}, nil, &c, nil).Retry("h", 1, 0) {
		t.Error("a policy with retries off granted a retry")
	}
}

// TestPolicyRetryReportsHalfOpen checks that the breaker check inside
// Retry reaches onChange: the open → half-open move it makes once the
// cooldown has passed is a transition like any other.
func TestPolicyRetryReportsHalfOpen(t *testing.T) {
	var c metrics.FaultCounters
	var seen []string
	p := NewPolicy(RetryPolicy{MaxAttempts: 3}, BreakerConfig{Threshold: 1, Cooldown: 10}, nil, &c,
		func(host string, prev, cur BreakerState) {
			seen = append(seen, host+": "+prev.String()+" -> "+cur.String())
		})
	p.Failed("h", 0)
	if p.Retry("h", 1, 5) {
		t.Fatal("retry granted while the breaker was open")
	}
	if !p.Retry("h", 1, 10) {
		t.Fatal("retry refused after the cooldown")
	}
	want := []string{"h: closed -> open", "h: open -> half-open"}
	if !slices.Equal(seen, want) {
		t.Fatalf("onChange saw %q, want %q", seen, want)
	}
	if want := (metrics.FaultCounters{Attempts: 1, Retries: 1, WastedFetches: 1}); c != want {
		t.Fatalf("counters = %+v, want %+v", c, want)
	}
}
