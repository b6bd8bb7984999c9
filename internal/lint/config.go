package lint

import (
	"regexp"
	"strings"
)

// Config scopes the checks to the packages and functions they guard.
//
// Package patterns match in two ways: a pattern containing a '/' matches any
// import path that contains it as a substring (so "internal/category" covers
// both the real package and the fixture mirrors under
// internal/lint/testdata/src/internal/category), while a pattern without a
// '/' must equal the whole import path (so the module root "repro" does not
// swallow every subpackage). Function patterns are substrings of the
// fully-qualified "pkgpath.Func" (or "pkgpath.Type.Method") name.
type Config struct {
	// SigFuncs matches the names of functions that build signatures or cache
	// keys; inside them sigfloat bans fmt/strconv float formatting (PR3's
	// HiInc collision came from ad-hoc float spelling). SigNumFuncs are the
	// approved canonical formatters (relation.SigNum itself).
	SigFuncs    *regexp.Regexp
	SigNumFuncs []string

	// RecoverPkgs may contain bare recover() calls (the sanctioned panic
	// boundary); everywhere else recoverbound demands resilience.Protect.
	// BoundaryPkgs are the serving packages whose spawned goroutines must
	// pass through a boundary matching ProtectFuncs or a deferred recover.
	RecoverPkgs  []string
	BoundaryPkgs []string
	ProtectFuncs *regexp.Regexp

	// HotPkgs are the categorizer hot-path packages where hottime bans raw
	// clock reads (PR4: timer starvation made ad-hoc time handling a
	// correctness issue); HotApprovedFuncs are the sanctioned soft-budget
	// poll sites.
	HotPkgs          []string
	HotApprovedFuncs []string

	// FsyncPkgs are the library packages whose file creation must go through
	// the durable store's write path (fsyncguard, PR9): a raw
	// os.Create/os.WriteFile/O_CREATE open there produces a persistent file
	// with no checksum frame, no fsync, and no rename protocol — invisible
	// until a crash tears it. FsyncAllowPkgs implement that write path and
	// are exempt; cmd/ tools and test files are outside FsyncPkgs entirely.
	FsyncPkgs      []string
	FsyncAllowPkgs []string

	// FrozenPkgs are the packages whose publish-then-freeze (COW/RCU)
	// discipline frozenguard enforces: any value that flows into a publish
	// sink — an atomic.Pointer Store/Swap/CompareAndSwap, or a registered
	// PublishSinks entry — is frozen at the publish site, and a later write
	// reachable through it (directly, or via a callee whose effect summary
	// mutates the argument) is flagged. PRs 2/6/8/9 each re-derived this rule
	// by hand for a different structure; one stale-write slip serves a
	// corrupted tree to every concurrent reader.
	FrozenPkgs []string

	// PublishSinks registers in-package publication functions beyond the
	// sync/atomic methods: a call whose qualified name contains Func hands
	// call argument Arg (0-based, receiver not counted) to concurrent
	// readers. The treecache insert and the durable manifest writer are the
	// repository's two non-atomic publication points.
	PublishSinks []PublishSink
}

// PublishSink names one publication function for frozenguard: calls whose
// qualified name contains Func hand argument Arg (0-based, receiver not
// counted) to concurrent readers.
type PublishSink struct {
	Func string
	Arg  int
}

// DefaultConfig returns the repository's tuned configuration. The testdata
// fixture packages mirror the real layout under
// internal/lint/testdata/src/, so the same substring patterns scope both.
func DefaultConfig() *Config {
	return &Config{
		SigFuncs:    regexp.MustCompile(`(?i)(sig|key)`),
		SigNumFuncs: []string{"internal/relation.SigNum"},

		RecoverPkgs:  []string{"internal/resilience"},
		BoundaryPkgs: []string{"repro", "internal/server", "internal/treecache"},
		ProtectFuncs: regexp.MustCompile(`(?i)protect`),

		HotPkgs:          []string{"internal/category", "internal/relation"},
		HotApprovedFuncs: []string{"internal/category.ctxExpired"},

		FsyncPkgs: []string{
			"repro", "internal/relation", "internal/category", "internal/workload",
			"internal/treecache", "internal/server", "internal/sqlparse",
		},
		FsyncAllowPkgs: []string{"internal/relation/durable"},

		FrozenPkgs: []string{
			"repro", "internal/relation", "internal/treecache",
			"internal/server", "internal/resilience",
		},
		PublishSinks: []PublishSink{
			{Func: "treecache.Cache.insertLocked", Arg: 2},
			{Func: "durable.Store.writeManifest", Arg: 1},
		},
	}
}

// matchPkg reports whether the import path matches any pattern under the
// Config matching rules.
func matchPkg(path string, pats []string) bool {
	for _, p := range pats {
		if strings.Contains(p, "/") {
			if strings.Contains(path, p) {
				return true
			}
		} else if path == p {
			return true
		}
	}
	return false
}

// matchFunc reports whether the fully-qualified function name matches any
// pattern (substring).
func matchFunc(qualified string, pats []string) bool {
	for _, p := range pats {
		if strings.Contains(qualified, p) {
			return true
		}
	}
	return false
}
