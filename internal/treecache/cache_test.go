package treecache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/resilience"
)

func bg() context.Context { return context.Background() }

func TestHitMissAndLRUOrder(t *testing.T) {
	c := New[int](Config{MaxEntries: 3})
	get := func(key string, want int) {
		t.Helper()
		v, _, err := c.Do(bg(), key, func(context.Context) (int, int64, error) { return want, 8, nil })
		if err != nil || v != want {
			t.Fatalf("Do(%s) = %d, %v", key, v, err)
		}
	}
	get("a", 1)
	get("b", 2)
	get("c", 3)
	if _, ok := c.Get("a"); !ok { // refresh a: now order (hot→cold) a, c, b
		t.Fatal("a should be cached")
	}
	get("d", 4) // evicts b, the least-recently-used
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should survive", k)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestByteBound(t *testing.T) {
	c := New[string](Config{MaxBytes: 100})
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		c.Do(bg(), key, func(context.Context) (string, int64, error) { return key, 40, nil })
	}
	s := c.Stats()
	if s.Bytes > 100 {
		t.Fatalf("bytes %d over bound", s.Bytes)
	}
	if s.Entries != 2 || s.Evictions != 3 {
		t.Fatalf("stats = %+v", s)
	}
	// One oversized value still caches (evicting everything colder).
	c.Do(bg(), "big", func(context.Context) (string, int64, error) { return "big", 1000, nil })
	if _, ok := c.Get("big"); !ok {
		t.Fatal("oversized entry should be kept")
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("oversized insert should evict the rest: %+v", s)
	}
}

// TestGrow: growing a stored entry charges the byte bound, evicts colder
// entries past it, and is released with the entry; a missing key or a
// recomputed value under the same key is not charged.
func TestGrow(t *testing.T) {
	c := New[string](Config{MaxBytes: 100})
	put := func(key, val string) {
		t.Helper()
		c.Do(bg(), key, func(context.Context) (string, int64, error) { return val, 30, nil })
	}
	put("a", "a1")
	put("b", "b1")
	if !Grow(c, "b", "b1", 20) {
		t.Fatal("Grow on a stored entry did not charge")
	}
	if s := c.Stats(); s.Bytes != 80 || s.Entries != 2 || s.Evictions != 0 {
		t.Fatalf("after growing b by 20: %+v", s)
	}
	if Grow(c, "missing", "", 5) || Grow(c, "b", "b0", 5) {
		t.Fatal("Grow charged an absent key or a value the key no longer holds")
	}
	// Past the bound, the cold end goes first.
	if !Grow(c, "b", "b1", 30) {
		t.Fatal("second Grow did not charge")
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("growing b past the bound should have evicted a")
	}
	if s := c.Stats(); s.Bytes != 80 || s.Entries != 1 || s.Evictions != 1 {
		t.Fatalf("after growing b past the bound: %+v", s)
	}
	// Evicting b releases its grown size.
	put("c", "c1")
	put("d", "d1")
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if s := c.Stats(); s.Bytes != 60 || s.Entries != 2 {
		t.Fatalf("after evicting b: %+v", s)
	}
	if Grow(c, "b", "b1", 5) {
		t.Fatal("Grow charged an evicted entry")
	}
}

// TestSingleflight: N concurrent misses on one key run compute once.
func TestSingleflight(t *testing.T) {
	c := New[int](Config{MaxEntries: 16})
	var computes atomic.Int32
	release := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(bg(), "k", func(context.Context) (int, int64, error) {
				computes.Add(1)
				<-release
				return 42, 8, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = v
		}(i)
	}
	// Wait until every goroutine has either started the compute or joined it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := c.Stats()
		if s.Misses+s.Shared >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines never queued: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times; want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Shared != n-1 {
		t.Fatalf("stats = %+v; want 1 miss, %d shared", s, n-1)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New[int](Config{MaxEntries: 4})
	boom := errors.New("boom")
	calls := 0
	for i := 0; i < 3; i++ {
		_, _, err := c.Do(bg(), "k", func(context.Context) (int, int64, error) {
			calls++
			return 0, 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v", err)
		}
	}
	if calls != 3 {
		t.Fatalf("failed computes must not be cached; ran %d times", calls)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestWaiterCancellation: a waiter whose context dies returns promptly; the
// computation finishes for the remaining waiter and is cached.
func TestWaiterCancellation(t *testing.T) {
	c := New[int](Config{MaxEntries: 4})
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(bg(), "k", func(context.Context) (int, int64, error) {
		close(started)
		<-release
		return 7, 8, nil
	})
	<-started
	ctx, cancel := context.WithCancel(bg())
	cancel()
	if _, _, err := c.Do(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v", err)
	}
	close(release)
	v, hit, err := c.Do(bg(), "k", nil) // nil compute is safe: value is cached or inflight
	if err != nil || v != 7 {
		t.Fatalf("Do after release = %d, %v, %v", v, hit, err)
	}
}

// TestAbandonedComputeCanceled: when every caller goes away, the compute
// context is canceled so cooperative computations can stop burning CPU.
func TestAbandonedComputeCanceled(t *testing.T) {
	c := New[int](Config{MaxEntries: 4})
	ctx, cancel := context.WithCancel(bg())
	computeCanceled := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(ctx, "k", func(cctx context.Context) (int, int64, error) {
			cancel() // the only caller abandons mid-compute
			select {
			case <-cctx.Done():
				close(computeCanceled)
				return 0, 0, cctx.Err()
			case <-time.After(5 * time.Second):
				return 0, 0, nil
			}
		})
	}()
	select {
	case <-computeCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("compute context never canceled after the last caller left")
	}
	<-done
}

func TestDisabledCacheStoresNothing(t *testing.T) {
	c := New[int](Config{})
	if c.Enabled() {
		t.Fatal("zero config should be disabled")
	}
	c.Do(bg(), "k", func(context.Context) (int, int64, error) { return 1, 8, nil })
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache stored a value")
	}
}

func TestFlush(t *testing.T) {
	c := New[int](Config{MaxEntries: 4})
	c.Do(bg(), "k", func(context.Context) (int, int64, error) { return 1, 8, nil })
	c.Flush()
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("after flush: %+v", s)
	}
}

// TestConcurrentMixed hammers the cache from many goroutines with a small
// key space to exercise hit/miss/join/evict interleavings under -race.
func TestConcurrentMixed(t *testing.T) {
	c := New[int](Config{MaxEntries: 8, MaxBytes: 1 << 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12)
				want := (g + i) % 12
				v, _, err := c.Do(bg(), key, func(context.Context) (int, int64, error) {
					return want, 64, nil
				})
				if err != nil || v != want {
					t.Errorf("Do(%s) = %d, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries > 8 || s.Bytes > 1<<16 {
		t.Fatalf("bounds violated: %+v", s)
	}
}

// TestErrorReachesEveryWaiter: N concurrent callers join one failing
// compute; every one of them gets the error, nothing is cached, and a later
// call recomputes.
func TestErrorReachesEveryWaiter(t *testing.T) {
	c := New[int](Config{MaxEntries: 4})
	boom := errors.New("boom")
	release := make(chan struct{})
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(bg(), "k", func(context.Context) (int, int64, error) {
				<-release
				return 0, 0, boom
			})
		}(i)
	}
	waitJoined(t, c, n)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d: err = %v, want boom", i, err)
		}
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Fatalf("failed compute cached an entry: %+v", s)
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("failed compute left a value behind")
	}
}

// TestPanicReachesEveryWaiter: a panicking compute is recovered at the
// singleflight boundary; every concurrent waiter receives a
// *resilience.PanicError, the cache is not poisoned, the Panics counter
// moves, and the key is computable again afterwards.
func TestPanicReachesEveryWaiter(t *testing.T) {
	c := New[int](Config{MaxEntries: 4})
	release := make(chan struct{})
	const n = 8
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = c.Do(bg(), "k", func(context.Context) (int, int64, error) {
				<-release
				panic("kaboom")
			})
		}(i)
	}
	waitJoined(t, c, n)
	close(release)
	wg.Wait()
	for i, err := range errs {
		var pe *resilience.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("waiter %d: err = %v (%T), want *resilience.PanicError", i, err, err)
		}
		if pe.Value != "kaboom" {
			t.Fatalf("waiter %d: panic value = %v", i, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("waiter %d: panic error lost the stack", i)
		}
	}
	s := c.Stats()
	if s.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", s.Panics)
	}
	if s.Entries != 0 {
		t.Fatalf("panicking compute cached an entry: %+v", s)
	}
	// The key is not poisoned: the next Do computes normally.
	v, _, err := c.Do(bg(), "k", func(context.Context) (int, int64, error) { return 9, 8, nil })
	if err != nil || v != 9 {
		t.Fatalf("Do after panic = %d, %v", v, err)
	}
}

// TestNegativeSizeDeliversWithoutStoring: the no-store sentinel (size < 0)
// hands the value to every waiter but leaves the cache empty — the serving
// path uses it so a degraded tree is never memoized as full-fidelity.
func TestNegativeSizeDeliversWithoutStoring(t *testing.T) {
	c := New[int](Config{MaxEntries: 4})
	release := make(chan struct{})
	const n = 4
	vals := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(bg(), "k", func(context.Context) (int, int64, error) {
				<-release
				return 5, -1, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			vals[i] = v
		}(i)
	}
	waitJoined(t, c, n)
	close(release)
	wg.Wait()
	for i, v := range vals {
		if v != 5 {
			t.Fatalf("waiter %d got %d, want 5", i, v)
		}
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("no-store value was cached")
	}
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("no-store compute changed occupancy: %+v", s)
	}
	// A later compute with a real size does store.
	c.Do(bg(), "k", func(context.Context) (int, int64, error) { return 6, 8, nil })
	if v, ok := c.Get("k"); !ok || v != 6 {
		t.Fatalf("storeable recompute: got %d, %v", v, ok)
	}
}

// waitJoined blocks until n callers have either started or joined the
// in-flight compute for the test's key.
func waitJoined(t *testing.T, c *Cache[int], n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := c.Stats()
		if s.Misses+s.Shared >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("callers never joined: %+v", s)
		}
		time.Sleep(time.Millisecond)
	}
}
