// Package vet holds the copies that go vet's copylocks check must reject:
// the bugs catlint's nocopy and snapshotguard checks were written for, which
// vet catches on its own. It sits under testdata, so ./... never vets it;
// `make lint-selfcheck` runs go vet on it and fails unless vet reports
// every line marked `// vet:`.
package vet

import (
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

type system struct{ gen uint64 }

// adaptive mirrors AdaptiveSystem: a writer mutex, the published snapshot
// behind an atomic pointer, and an atomic counter.
type adaptive struct {
	learnMu sync.Mutex
	cur     atomic.Pointer[system]
	learned atomic.Int64
}

// copyCounter copies an atomic field: v forks the counter.
func copyCounter(a *adaptive) int64 {
	v := a.learned // vet: assignment copies lock value
	return v.Load()
}

// rebind assigns one snapshot pointer over another without Load/Store.
func rebind(a, b *adaptive) {
	a.cur = b.cur // vet: assignment copies lock value
}

// seed initializes an atomic field of a struct literal from another's.
func seed(b *adaptive) *adaptive {
	return &adaptive{cur: b.cur} // vet: literal copies lock value
}

// generation takes the mutex-bearing struct by value.
func generation(a adaptive) uint64 { // vet: passes lock by value
	return a.cur.Load().gen
}

// count takes a Bitmap by value: the copy shares words and forks n.
func count(b relation.Bitmap) int { // vet: passes lock by value
	return b.Count()
}
