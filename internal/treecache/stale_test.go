package treecache

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// fill stores val under (key, base) through the public API.
func fill(t *testing.T, c *Cache[string], key, base, val string) {
	t.Helper()
	got, _, err := c.DoStale(context.Background(), key, base,
		func(context.Context, string, bool) (string, int64, error) {
			return val, 1, nil
		})
	if err != nil || got != val {
		t.Fatalf("fill %q: got %q err %v", key, got, err)
	}
}

func TestDoStaleOffersSupersededGeneration(t *testing.T) {
	c := New[string](Config{MaxEntries: 8})
	fill(t, c, "q|gen1", "q", "tree-g1")

	var sawStale string
	var had bool
	got, hit, err := c.DoStale(context.Background(), "q|gen2", "q",
		func(_ context.Context, stale string, haveStale bool) (string, int64, error) {
			sawStale, had = stale, haveStale
			return "tree-g2", 1, nil
		})
	if err != nil || hit || got != "tree-g2" {
		t.Fatalf("DoStale = (%q, %v, %v)", got, hit, err)
	}
	if !had || sawStale != "tree-g1" {
		t.Fatalf("compute offered (%q, %v), want superseded tree-g1", sawStale, had)
	}
	s := c.Stats()
	if s.Stale != 1 {
		t.Fatalf("stats stale=%d, want 1", s.Stale)
	}

	// Newest generation wins the base slot: a gen3 miss is offered gen2.
	_, _, err = c.DoStale(context.Background(), "q|gen3", "q",
		func(_ context.Context, stale string, haveStale bool) (string, int64, error) {
			if !haveStale || stale != "tree-g2" {
				t.Errorf("gen3 offered (%q, %v), want tree-g2", stale, haveStale)
			}
			return "tree-g3", 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}

	// A repeat of the full key is a plain hit: no compute, no stale counter.
	got, hit, err = c.DoStale(context.Background(), "q|gen3", "q",
		func(context.Context, string, bool) (string, int64, error) {
			t.Error("hit ran compute")
			return "", 0, nil
		})
	if err != nil || !hit || got != "tree-g3" {
		t.Fatalf("hit = (%q, %v, %v)", got, hit, err)
	}
	if s := c.Stats(); s.Stale != 2 {
		t.Fatalf("stale count = %d after hit, want 2", s.Stale)
	}
}

func TestDoStaleColdMissHasNoMaterial(t *testing.T) {
	c := New[string](Config{MaxEntries: 8})
	_, _, err := c.DoStale(context.Background(), "q|gen1", "q",
		func(_ context.Context, stale string, haveStale bool) (string, int64, error) {
			if haveStale || stale != "" {
				t.Errorf("cold miss offered (%q, %v)", stale, haveStale)
			}
			return "tree", 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Stale != 0 {
		t.Fatalf("stats stale=%d, want 0", s.Stale)
	}
	// Different base keys never cross-pollinate.
	_, _, err = c.DoStale(context.Background(), "other|gen1", "other",
		func(_ context.Context, _ string, haveStale bool) (string, int64, error) {
			if haveStale {
				t.Error("foreign base offered as stale material")
			}
			return "tree2", 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoStaleSingleflight(t *testing.T) {
	c := New[string](Config{MaxEntries: 8})
	fill(t, c, "q|gen1", "q", "tree-g1")

	const waiters = 16
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := c.DoStale(context.Background(), "q|gen2", "q",
				func(_ context.Context, stale string, haveStale bool) (string, int64, error) {
					computes.Add(1)
					<-gate
					if !haveStale || stale != "tree-g1" {
						return "", 0, fmt.Errorf("bad stale offer (%q, %v)", stale, haveStale)
					}
					return "tree-g2", 1, nil
				})
			if err != nil || got != "tree-g2" {
				t.Errorf("waiter: (%q, %v)", got, err)
			}
		}()
	}
	// Let the goroutines pile up on the inflight call, then release.
	for c.Stats().Shared < waiters-1 {
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computes for one stale miss, want 1 (singleflight)", n)
	}
	s := c.Stats()
	if s.Stale != 1 || s.Shared != waiters-1 {
		t.Fatalf("stats = %+v, want stale=1 shared=%d", s, waiters-1)
	}
}

func TestDoStaleEvictionDropsBaseSlot(t *testing.T) {
	c := New[string](Config{MaxEntries: 1})
	fill(t, c, "a|gen1", "a", "tree-a")
	fill(t, c, "b|gen1", "b", "tree-b") // evicts a|gen1
	_, _, err := c.DoStale(context.Background(), "a|gen2", "a",
		func(_ context.Context, _ string, haveStale bool) (string, int64, error) {
			if haveStale {
				t.Error("evicted entry offered as stale material")
			}
			return "tree-a2", 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDoStaleNegativeSizeNotStored(t *testing.T) {
	c := New[string](Config{MaxEntries: 8})
	fill(t, c, "q|gen1", "q", "tree-g1")
	got, _, err := c.DoStale(context.Background(), "q|gen2", "q",
		func(context.Context, string, bool) (string, int64, error) {
			return "degraded", -1, nil
		})
	if err != nil || got != "degraded" {
		t.Fatalf("DoStale = (%q, %v)", got, err)
	}
	if _, ok := c.Get("q|gen2"); ok {
		t.Fatal("negative-size value was stored")
	}
	// The base slot still points at gen1 — the next miss is offered it.
	_, _, err = c.DoStale(context.Background(), "q|gen3", "q",
		func(_ context.Context, stale string, haveStale bool) (string, int64, error) {
			if !haveStale || stale != "tree-g1" {
				t.Errorf("offered (%q, %v), want tree-g1", stale, haveStale)
			}
			return "tree-g3", 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlushClearsBaseSlots(t *testing.T) {
	c := New[string](Config{MaxEntries: 8})
	fill(t, c, "q|gen1", "q", "tree-g1")
	c.Flush()
	_, _, err := c.DoStale(context.Background(), "q|gen2", "q",
		func(_ context.Context, _ string, haveStale bool) (string, int64, error) {
			if haveStale {
				t.Error("flushed entry offered as stale material")
			}
			return "tree-g2", 1, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
