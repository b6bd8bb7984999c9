// Package treecache is the lockguard fixture mirror: a mutex-guarded cache
// shape annotated with //lint:guardedby, seeded with the violations the
// check must catch (unlocked direct access, an unlocked call path into a
// locked-caller helper, goroutine capture without re-locking) and the legal
// idioms that must stay quiet (lock/unlock-on-branch-return, deferred
// unlock, helpers only reached with the lock held, constructors touching
// fresh unshared state).
package treecache

import "sync"

// store mirrors the real cache's guarded interior.
type store struct {
	mu sync.Mutex
	//lint:guardedby mu
	table map[string]int
	//lint:guardedby mu
	hits int
}

// BadDirect touches guarded state with no lock on any path in.
func (s *store) BadDirect() {
	s.table["k"] = 1 // want `store.table is guarded by mu, and no path to this access holds the lock`
}

// BadSnapshot reads guarded state with no lock, the shape of an unlocked
// segs/tail read in place of a locked snapshot().
func (s *store) BadSnapshot() (map[string]int, int) {
	return s.table, s.hits // want `store.table is guarded by mu` `store.hits is guarded by mu`
}

// bump requires its caller to hold the lock; GoodCaller discharges the
// requirement, BadCaller does not, so the violations surface here.
func (s *store) bump(k string) {
	s.hits++            // want `store.hits is guarded by mu, and no path to this access holds the lock`
	s.table[k] = s.hits // want `store.table is guarded by mu` `store.hits is guarded by mu`
}

// GoodCaller holds the lock across the helper: requirement discharged.
func (s *store) GoodCaller(k string) {
	s.mu.Lock()
	s.bump(k)
	s.mu.Unlock()
}

// BadCaller reaches bump without the lock.
func (s *store) BadCaller(k string) {
	s.bump(k)
}

// Get is the branch-unlock idiom the flow walker must understand: the early
// return leaves the critical section, the fallthrough path unlocks too.
func (s *store) Get(k string) (int, bool) {
	s.mu.Lock()
	if v, ok := s.table[k]; ok {
		s.mu.Unlock()
		return v, true
	}
	s.mu.Unlock()
	return 0, false
}

// Len uses the deferred-unlock idiom: held to function exit.
func (s *store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.table)
}

// protectRun mirrors the resilience boundary the serving path wraps spawned
// goroutines in (recoverbound's contract).
func protectRun(f func()) {
	f()
}

// SpawnBad captures guarded state in a goroutine without re-locking: the
// spawner's (absent) lock would not travel into the goroutine anyway.
func (s *store) SpawnBad() {
	go protectRun(func() {
		s.hits++ // want `goroutine accesses store.hits \(guarded by mu\) without holding the lock`
	})
}

// SpawnGood re-locks inside the goroutine, like the real cache's fill path.
func (s *store) SpawnGood() {
	go protectRun(func() {
		s.mu.Lock()
		s.hits++
		s.mu.Unlock()
	})
}

// NewStore touches fields of a fresh, unshared object — no lock needed —
// and the freshness fact follows the object through the call to seed.
func NewStore() *store {
	s := &store{table: make(map[string]int)}
	s.hits = 1
	s.seed()
	return s
}

// seed is only ever reached with a fresh receiver.
func (s *store) seed() {
	s.table["boot"] = 0
}

// badAnno's annotation names a non-mutex field: the annotation itself is the
// finding, and the field is not registered as guarded.
type badAnno struct {
	mu sync.Mutex
	//lint:guardedby mux
	n int // want `guardedby names "mux", which is not a sync.Mutex/RWMutex field of badAnno`
}

// rwstore exercises RWMutex read-side locking.
type rwstore struct {
	mu sync.RWMutex
	//lint:guardedby mu
	snap []int
}

// Read holds the read lock via deferred RUnlock: quiet.
func (s *rwstore) Read() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.snap)
}
