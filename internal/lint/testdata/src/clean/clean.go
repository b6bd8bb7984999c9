// Package clean is the all-negative fixture: code adjacent to every check's
// pattern that must produce zero diagnostics, proving the checks stay scoped
// (hottime to its packages, nocopy to the serving path) and
// that suppressions silence true positives.
package clean

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

type Options struct {
	CandidateAttrs []string
}

// pointerOpts mutates through an explicit *Options: the caller opted in.
func pointerOpts(o *Options) {
	sort.Strings(o.CandidateAttrs)
}

// copyFirst snapshots before sorting: the caller's slice is untouched.
func copyFirst(o Options) []string {
	out := append([]string(nil), o.CandidateAttrs...)
	sort.Strings(out)
	return out
}

// timing reads the raw clock — fine here, this package is not a hot-path
// package.
func timing() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// spawn launches a silent goroutine — fine here, this package neither fans
// out categorizer work nor sits on the serving path.
func spawn() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done() }()
	wg.Wait()
}

// suppressedKey formats a float on a key-named path under a recorded
// suppression: the sigfloat finding exists but is silenced with a reason.
func suppressedKey(x float64) string {
	//lint:ignore sigfloat fixture: debug-only key spelling, never fed to a cache
	return fmt.Sprintf("%g", x)
}

// renderFloat formats a float off the signature path: the function name
// matches neither sig nor key, so sigfloat does not apply.
func renderFloat(x float64) string {
	return fmt.Sprintf("%.2f", x)
}
