// Package treecache memoizes computed category trees for the serving path.
// It is a bounded LRU keyed by canonical query signature (plus technique,
// options, and workload-stats generation — the caller composes the key) with
// singleflight semantics: when N requests miss on the same key
// concurrently, one computes and the rest wait, so a thundering herd of
// identical queries costs one categorization.
//
// The cache is generic over the value type so it can be tested — and bounded
// — without depending on the category package: the caller supplies each
// value's approximate byte size at insertion.
//
// Invalidation is by key construction, not by explicit purge: workload-stats
// snapshots carry a generation counter, the generation is part of the key,
// and entries from superseded generations simply age out of the LRU.
//
// Superseded entries are not dead weight, though: DoStale lets a miss consult
// the newest entry sharing the caller's base key (everything but the
// generation) and hand it to the compute, which may reuse what does not
// depend on the generation — the serving path takes the stale tree's result
// rows and skips the selection (DESIGN.md §13). Staleness is resolved under
// the same singleflight as the compute itself.
package treecache

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/resilience"
	"repro/internal/resilience/faultinject"
)

// Config bounds a Cache. A zero bound disables that dimension; both zero
// means the cache holds nothing (New returns a cache that always misses and
// never stores — callers gate on Enabled).
type Config struct {
	// MaxEntries bounds the number of cached values.
	MaxEntries int
	// MaxBytes bounds the sum of the callers' reported value sizes.
	MaxBytes int64
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits counts lookups answered from a stored value.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that started a computation.
	Misses uint64 `json:"misses"`
	// Shared counts lookups that joined another caller's in-flight
	// computation instead of starting their own.
	Shared uint64 `json:"shared"`
	// Evictions counts values dropped to respect the bounds.
	Evictions uint64 `json:"evictions"`
	// Stale counts computations that were offered a superseded-generation
	// value for their base key (a DoStale miss that found one).
	Stale uint64 `json:"stale"`
	// Panics counts computes that panicked. The panic is demoted to a
	// *resilience.PanicError delivered to every waiter; nothing is cached
	// and the process survives.
	Panics uint64 `json:"panics"`
	// Entries and Bytes describe current occupancy.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// Cache is a bounded LRU with singleflight computation. Safe for concurrent
// use. The zero value is not usable; call New.
type Cache[V any] struct {
	mu  sync.Mutex
	cfg Config // immutable after New
	//lint:guardedby mu
	ll *list.List // front = most recently used
	//lint:guardedby mu
	table map[string]*list.Element
	//lint:guardedby mu
	byBase map[string]*list.Element // newest entry per base key (DoStale)
	//lint:guardedby mu
	inflight map[string]*call[V]
	//lint:guardedby mu
	bytes int64
	//lint:guardedby mu
	stats Stats
}

type entry[V any] struct {
	key  string
	base string // generation-free prefix of key; "" when untracked
	val  V
	size int64
}

// call is one in-flight computation. refs counts the waiters (including the
// initiator); when every waiter abandons (request contexts canceled), the
// compute context is canceled so a cooperative computation can stop early.
type call[V any] struct {
	done   chan struct{}
	cancel context.CancelFunc
	refs   int
	val    V
	size   int64
	err    error
}

// New builds a cache with the given bounds.
func New[V any](cfg Config) *Cache[V] {
	return &Cache[V]{
		cfg:      cfg,
		ll:       list.New(),
		table:    make(map[string]*list.Element),
		byBase:   make(map[string]*list.Element),
		inflight: make(map[string]*call[V]),
	}
}

// Bounds returns the configured limits.
func (c *Cache[V]) Bounds() Config { return c.cfg }

// Enabled reports whether the configuration admits any entry at all.
func (c *Cache[V]) Enabled() bool {
	return c != nil && (c.cfg.MaxEntries > 0 || c.cfg.MaxBytes > 0)
}

// Get returns the cached value for key, refreshing its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.table[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Do returns the value for key, computing it at most once across concurrent
// callers. compute receives a context that is detached from any single
// request but canceled once every caller waiting on this key has gone away;
// compute returns the value and its approximate size in bytes. A negative
// size delivers the value to every waiter WITHOUT storing it — for values
// that must not be memoized, like a degraded tree built under an exhausted
// deadline budget. hit reports whether the value came from the cache (false
// for both the computing caller and the waiters that joined it). Errors are
// returned to every waiting caller and never cached. A panicking compute is
// recovered at this boundary: every waiter receives a *resilience.PanicError
// (the entry is not poisoned, the process survives). If ctx is canceled
// while waiting, Do returns ctx's error.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func(context.Context) (V, int64, error)) (val V, hit bool, err error) {
	return c.do(ctx, key, "", func(cctx context.Context, _ V, _ bool) (V, int64, error) {
		return compute(cctx)
	})
}

// DoStale is Do for generation-stamped keys: key is the full lookup key
// (including the stats generation), base is the generation-free prefix shared
// by every generation of the same logical entry. On a miss, the newest stored
// value under base — necessarily a superseded generation, or the full key
// would have hit — is handed to compute (haveStale reports whether one
// existed; its recency is not refreshed) and counted in Stats.Stale. All
// other semantics (singleflight, negative-size no-store, panic containment,
// cancellation) match Do.
func (c *Cache[V]) DoStale(ctx context.Context, key, base string, compute func(cctx context.Context, stale V, haveStale bool) (V, int64, error)) (val V, hit bool, err error) {
	return c.do(ctx, key, base, compute)
}

func (c *Cache[V]) do(ctx context.Context, key, base string, compute func(context.Context, V, bool) (V, int64, error)) (val V, hit bool, err error) {
	var stale V
	haveStale := false
	c.mu.Lock()
	if el, ok := c.table[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		v := el.Value.(*entry[V]).val
		c.mu.Unlock()
		return v, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		cl.refs++
		c.stats.Shared++
		c.mu.Unlock()
		return c.wait(ctx, cl)
	}
	if base != "" {
		if el, ok := c.byBase[base]; ok && el.Value.(*entry[V]).key != key {
			stale = el.Value.(*entry[V]).val
			haveStale = true
			c.stats.Stale++
		}
	}
	cctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	cl := &call[V]{done: make(chan struct{}), cancel: cancel, refs: 1}
	c.inflight[key] = cl
	c.stats.Misses++
	c.mu.Unlock()

	go func() {
		v, size, err := c.protectStale(cctx, stale, haveStale, compute)
		c.mu.Lock()
		cl.val, cl.size, cl.err = v, size, err
		delete(c.inflight, key)
		if err == nil && size >= 0 {
			c.insertLocked(key, base, v, size)
		}
		c.mu.Unlock()
		cancel()
		close(cl.done)
	}()
	return c.wait(ctx, cl)
}

// protectStale runs compute behind the singleflight resilience.Protect
// boundary: a panic anywhere below (the categorizer, an injected fault)
// becomes an error delivered to all waiters instead of tearing down the
// process.
func (c *Cache[V]) protectStale(cctx context.Context, stale V, haveStale bool, compute func(context.Context, V, bool) (V, int64, error)) (V, int64, error) {
	type sized struct {
		val  V
		size int64
	}
	out, err := resilience.Protect(
		func(*resilience.PanicError) {
			c.mu.Lock()
			c.stats.Panics++
			c.mu.Unlock()
		},
		func() (sized, error) {
			if err := faultinject.Inject(cctx, faultinject.SiteCacheCompute); err != nil {
				return sized{}, err
			}
			v, size, err := compute(cctx, stale, haveStale)
			return sized{v, size}, err
		},
	)
	return out.val, out.size, err
}

// wait blocks until the call completes or ctx is canceled. Abandoning the
// last reference cancels the computation's context.
func (c *Cache[V]) wait(ctx context.Context, cl *call[V]) (V, bool, error) {
	select {
	case <-cl.done:
		return cl.val, false, cl.err
	case <-ctx.Done():
		c.mu.Lock()
		cl.refs--
		if cl.refs <= 0 {
			cl.cancel()
		}
		c.mu.Unlock()
		var zero V
		return zero, false, ctx.Err()
	}
}

// insertLocked stores the value and evicts from the cold end until the
// bounds hold again. The newest entry survives even when it alone exceeds
// MaxBytes: evicting what was just computed would thrash. A disabled cache
// (both bounds zero) stores nothing.
func (c *Cache[V]) insertLocked(key, base string, val V, size int64) {
	if c.cfg.MaxEntries <= 0 && c.cfg.MaxBytes <= 0 {
		return
	}
	if el, ok := c.table[key]; ok { // raced insert of the same key
		c.bytes += size - el.Value.(*entry[V]).size
		el.Value.(*entry[V]).val = val
		el.Value.(*entry[V]).size = size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&entry[V]{key: key, base: base, val: val, size: size})
		c.table[key] = el
		if base != "" {
			c.byBase[base] = el // newest generation wins the base slot
		}
		c.bytes += size
	}
	c.evictOverLocked()
}

// Grow adds delta bytes to the size of the entry stored under key, for
// memory the caller attached to its value after it was stored, and evicts
// from the cold end until the bounds hold again (the grown entry is
// evictable like any other). It charges only while key still holds stored:
// a value evicted and recomputed under the same key is another entry. Grow
// reports whether it charged. It is a function rather than a method because
// comparing stored values needs V comparable, which Cache does not require.
func Grow[V comparable](c *Cache[V], key string, stored V, delta int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.table[key]
	if !ok || el.Value.(*entry[V]).val != stored {
		return false
	}
	el.Value.(*entry[V]).size += delta
	c.bytes += delta
	c.evictOverLocked()
	return true
}

// evictOverLocked evicts from the cold end until the bounds hold, keeping
// at least one entry.
func (c *Cache[V]) evictOverLocked() {
	for c.ll.Len() > 1 &&
		((c.cfg.MaxEntries > 0 && c.ll.Len() > c.cfg.MaxEntries) ||
			(c.cfg.MaxBytes > 0 && c.bytes > c.cfg.MaxBytes)) {
		c.evictLocked()
	}
}

func (c *Cache[V]) evictLocked() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	e := el.Value.(*entry[V])
	c.ll.Remove(el)
	delete(c.table, e.key)
	if e.base != "" && c.byBase[e.base] == el {
		delete(c.byBase, e.base)
	}
	c.bytes -= e.size
	c.stats.Evictions++
}

// Stats returns a snapshot of the counters and occupancy.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.bytes
	return s
}

// Flush drops every stored value (in-flight computations are unaffected and
// will store their results when they finish).
func (c *Cache[V]) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.table)
	clear(c.byBase)
	c.bytes = 0
}
