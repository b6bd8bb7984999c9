package repro

import (
	"context"
	"testing"
	"time"

	"repro/internal/resilience"
	"repro/internal/sqlparse"
)

func warmFixture(t *testing.T) *AdaptiveSystem {
	t.Helper()
	rel := DemoDataset(2000, 1)
	sys, err := NewSystem(rel, Config{
		WorkloadSQL:      DemoWorkloadSQL(1500, 2),
		Intervals:        DemoIntervals(),
		TreeCacheEntries: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Adaptive()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// bareWarmer builds a Warmer without starting its loop, for tests that drive
// warmCycle synchronously.
func bareWarmer(a *AdaptiveSystem, cfg WarmerConfig) *Warmer {
	if cfg.Budget <= 0 {
		cfg.Budget = defaultWarmBudget
	}
	return &Warmer{
		a:      a,
		cfg:    cfg,
		counts: make(map[string]*warmSig),
		notify: make(chan struct{}, 1),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

func mustParse(t *testing.T, sql string) *sqlparse.Query {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestWarmCycleWarmsTopSignatures drives one synchronous cycle and checks the
// hottest signatures land in the cache while colder ones do not.
func TestWarmCycleWarmsTopSignatures(t *testing.T) {
	a := warmFixture(t)
	w := bareWarmer(a, WarmerConfig{TopK: 2})

	hot := mustParse(t, "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA') AND price BETWEEN 200000 AND 400000")
	warm2 := mustParse(t, "SELECT * FROM ListProperty WHERE bedrooms BETWEEN 2 AND 4")
	cold := mustParse(t, "SELECT * FROM ListProperty WHERE propertytype = 'Condo'")
	w.observe([]*sqlparse.Query{hot, hot, hot, warm2, warm2, cold})

	w.warmCycle()

	sys := a.System()
	if _, ok := sys.Peek(hot, CostBased, Options{}); !ok {
		t.Errorf("hottest signature not warmed")
	}
	if _, ok := sys.Peek(warm2, CostBased, Options{}); !ok {
		t.Errorf("second signature not warmed")
	}
	if _, ok := sys.Peek(cold, CostBased, Options{}); ok {
		t.Errorf("signature outside top-K was warmed")
	}
	if s := w.snapshot(); s.Warmed != 2 || s.Cycles != 1 || s.Tracked != 3 {
		t.Errorf("stats = %+v, want warmed=2 cycles=1 tracked=3", s)
	}

	// A warmed signature served on the foreground path is a pure hit.
	out, err := sys.ServeParsedWith(context.Background(), hot, CostBased, Options{}, ServePolicy{})
	if err != nil || !out.Hit {
		t.Errorf("foreground serve after warming: hit=%v err=%v", out.Hit, err)
	}
}

// TestWarmCycleRespectsBusyLimiter pins the never-shed-foreground invariant:
// with every admission slot held (or a queue formed), warming must do
// nothing — no queueing, no shedding, just a Busy count.
func TestWarmCycleRespectsBusyLimiter(t *testing.T) {
	a := warmFixture(t)
	lim := resilience.NewLimiter(1, 4)
	release, err := lim.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	w := bareWarmer(a, WarmerConfig{TopK: 1, Limiter: lim})
	q := mustParse(t, "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA')")
	w.observe([]*sqlparse.Query{q})
	w.warmCycle()

	if _, ok := a.System().Peek(q, CostBased, Options{}); ok {
		t.Errorf("warmed through a saturated limiter")
	}
	s := w.snapshot()
	if s.Busy != 1 || s.Warmed != 0 {
		t.Errorf("stats = %+v, want busy=1 warmed=0", s)
	}
	if ls := lim.Stats(); ls.QueueDepth != 0 || ls.Shed != 0 {
		t.Errorf("warming queued or shed on the limiter: %+v", ls)
	}
}

// TestWarmCycleSkipsSameGeneration: a cycle that finds the generation the
// previous cycle warmed is a no-op, and a learn that publishes a new
// generation makes the next cycle run.
func TestWarmCycleSkipsSameGeneration(t *testing.T) {
	a := warmFixture(t)
	w := bareWarmer(a, WarmerConfig{TopK: 1})
	sql := "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA')"
	q := mustParse(t, sql)
	w.observe([]*sqlparse.Query{q})

	w.warmCycle()
	if s := w.snapshot(); s.Cycles != 1 || s.SkippedCycles != 0 {
		t.Fatalf("first cycle: %+v", s)
	}
	// No learn between cycles: same generation, skipped.
	w.warmCycle()
	if s := w.snapshot(); s.Cycles != 1 || s.SkippedCycles != 1 {
		t.Fatalf("same-generation cycle not skipped: %+v", s)
	}
	// A learn that folds nothing in publishes no generation: still skipped.
	if err := a.Learn("SELECT * FROM Other WHERE price < 5"); err != nil {
		t.Fatal(err)
	}
	w.warmCycle()
	if s := w.snapshot(); s.Cycles != 1 || s.SkippedCycles != 2 {
		t.Fatalf("cycle after an empty learn not skipped: %+v", s)
	}
	// A learn that publishes a new generation: the cycle runs and warms q
	// into it.
	if err := a.Learn(sql); err != nil {
		t.Fatal(err)
	}
	w.warmCycle()
	if s := w.snapshot(); s.Cycles != 2 || s.SkippedCycles != 2 || s.Warmed != 2 {
		t.Fatalf("new-generation cycle: %+v, want cycles=2 skipped=2 warmed=2", s)
	}
	if _, ok := a.System().Peek(q, CostBased, Options{}); !ok {
		t.Fatal("new-generation cycle did not warm the signature")
	}

	// Already-cached signatures count as AlreadyCached, not re-warmed.
	w2 := bareWarmer(a, WarmerConfig{TopK: 1})
	w2.observe([]*sqlparse.Query{q})
	w2.warmCycle()
	if s := w2.snapshot(); s.AlreadyCached+s.Warmed != 1 {
		t.Fatalf("second warmer: %+v", s)
	}
}

// TestWarmerLifecycle exercises the real background loop end to end: start,
// learn, observe the warm landing, stop.
func TestWarmerLifecycle(t *testing.T) {
	a := warmFixture(t)
	w := a.StartWarmer(WarmerConfig{TopK: 4})
	if w == nil {
		t.Fatal("StartWarmer returned nil")
	}
	if dup := a.StartWarmer(WarmerConfig{TopK: 4}); dup != nil {
		t.Fatal("second StartWarmer did not refuse")
	}
	defer a.StopWarmer()

	sql := "SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA') AND price BETWEEN 250000 AND 450000"
	q := mustParse(t, sql)
	if err := a.Learn(sql); err != nil {
		t.Fatal(err)
	}
	// The warmer counts a warmed tree only after its build has entered the
	// cache, so wait for both rather than reading the stats on the first hit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, cached := a.System().Peek(q, CostBased, Options{})
		s, ok := a.WarmerStats()
		if cached && ok && s.Warmed > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("warmer never cached the learned signature: cached=%v stats ok=%v %+v", cached, ok, s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.StopWarmer()
	if _, ok := a.WarmerStats(); ok {
		t.Fatal("stats still available after StopWarmer")
	}
	a.StopWarmer() // idempotent
	if w := a.StartWarmer(WarmerConfig{TopK: 0}); w != nil {
		t.Fatal("TopK=0 should disable warming")
	}
}
