// Package category is the hot-path fixture mirror: its import path contains
// "internal/category", so the hottime check scopes to it exactly as it does
// to the real categorizer.
package category

import (
	"context"
	"time"
)

// ctxExpired mirrors the real approved soft-budget poll site: its qualified
// name matches HotApprovedFuncs, so the wall-clock read is sanctioned.
func ctxExpired(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// hotLoop reads the raw clock in a hot-path package: both reads are findings.
func hotLoop(rows []int) time.Duration {
	start := time.Now() // want `raw time\.Now in hot-path package`
	for range rows {
		_ = start
	}
	return time.Since(start) // want `raw time\.Since in hot-path package`
}

// timerLoop constructs a runtime timer in a hot-path package: finding.
func timerLoop() {
	t := time.NewTimer(time.Second) // want `raw time\.NewTimer in hot-path package`
	t.Stop()
}

// instrumented carries a justified suppression: the finding is recorded in
// the source but silenced — the negative half of the hottime fixture.
func instrumented(rows []int) int64 {
	//lint:ignore hottime fixture: deliberate one-shot instrumentation with a recorded reason
	start := time.Now()
	n := int64(0)
	for range rows {
		n++
	}
	_ = start
	return n
}
