package workload

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sqlparse"
)

// learnCfg mines table T with per-attribute grids for price and sqft; other
// numeric attributes (year) fall back to DefaultInterval.
var learnCfg = Config{Table: "T", Intervals: map[string]float64{"price": 50, "sqft": 20}, DefaultInterval: 5}

// randomQuery draws one logged query: categorical and numeric conditions in
// several spellings, strict and open bounds, queries on another table, and
// two attributes (Year, garage) that first appear only after the i-th query.
func randomQuery(rng *rand.Rand, i int) string {
	if rng.Intn(20) == 0 {
		return "SELECT * FROM Other WHERE price >= 1 AND hood IN ('h1')"
	}
	var conds []string
	if rng.Intn(3) > 0 {
		spelling := []string{"hood", "Hood", "HOOD"}[rng.Intn(3)]
		conds = append(conds, fmt.Sprintf("%s IN ('h%d','h%d')", spelling, rng.Intn(12), rng.Intn(12)))
	}
	if rng.Intn(4) == 0 {
		conds = append(conds, fmt.Sprintf("kind = 'k%d'", rng.Intn(4)))
	}
	if rng.Intn(3) > 0 {
		conds = append(conds, randomRange(rng, "price", 1000))
	}
	if rng.Intn(3) == 0 {
		conds = append(conds, randomRange(rng, "Sqft", 300))
	}
	if i > 100 && rng.Intn(6) == 0 {
		conds = append(conds, randomRange(rng, "Year", 100))
	}
	if i > 200 && rng.Intn(8) == 0 {
		conds = append(conds, fmt.Sprintf("garage IN ('g%d')", rng.Intn(3)))
	}
	if len(conds) == 0 {
		return "SELECT * FROM T"
	}
	return "SELECT * FROM T WHERE " + strings.Join(conds, " AND ")
}

func randomRange(rng *rand.Rand, attr string, span int) string {
	lo := rng.Intn(span)
	hi := lo + rng.Intn(span/2)
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("%s BETWEEN %d AND %d", attr, lo, hi)
	case 1:
		return fmt.Sprintf("%s >= %d", attr, lo)
	case 2:
		return fmt.Sprintf("%s < %d", attr, hi)
	default:
		return fmt.Sprintf("%s > %d AND %s <= %d", attr, lo, attr, hi)
	}
}

func randomLog(rng *rand.Rand, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = randomQuery(rng, i)
	}
	return out
}

func mustWorkload(t *testing.T, sqls []string) *Workload {
	t.Helper()
	w, err := ParseStrings(sqls)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// dumpStats renders every table of s canonically: N, the rank order, and per
// attribute its usage, first-seen case, occ, splits and merged range lists.
func dumpStats(s *Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "N %d\nrank %v\n", s.n, s.byFreq)
	keys := make([]string, 0, len(s.attrs))
	for k := range s.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t := s.attrs[k]
		fmt.Fprintf(&b, "%s %q usage %d occ %v", k, t.name, t.usage, t.occ)
		if st := t.splits; st != nil {
			fmt.Fprintf(&b, " splits %v %v %v", st.Interval, st.start, st.end)
		}
		if t.ranges != nil {
			los, his := t.ranges.merged()
			fmt.Fprintf(&b, " ranges %v %v", los, his)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// readerAnswers records what every reader method answers on s over a fixed
// probe set covering the attributes and values randomQuery draws.
func readerAnswers(s *Stats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "N %d by usage %v retained %v\n", s.N(), s.AttrsByUsage(), s.Retained(0.2))
	inf := math.Inf(1)
	windows := [][2]float64{{0, 100}, {50, 51}, {200, 900}, {-inf, inf}, {999, 1000}, {3, 3}, {20, 20.5}}
	for _, a := range []string{"hood", "KIND", "garage", "price", "sqft", "year", "missing"} {
		fmt.Fprintf(&b, "%s NAttr %d frac %v occ", a, s.NAttr(a), s.UsageFraction(a))
		for _, prefix := range []string{"h", "k", "g"} {
			for v := 0; v < 12; v++ {
				fmt.Fprintf(&b, " %d", s.Occ(a, fmt.Sprintf("%s%d", prefix, v)))
			}
		}
		fmt.Fprintf(&b, " pair %d ranges", s.NOverlapValues(a, map[string]struct{}{"h1": {}, "h2": {}}))
		for _, w := range windows {
			fmt.Fprintf(&b, " %d", s.NOverlapRange(a, w[0], w[1]))
		}
		if st := s.Splits(a); st != nil {
			fmt.Fprintf(&b, " interval %v grid", st.Interval)
			for v := -st.Interval; v <= 1500; v += st.Interval {
				if start, end := st.StartEnd(v); start+end > 0 {
					fmt.Fprintf(&b, " %v:%d/%d/%d", v, start, end, st.Goodness(v))
				}
			}
			fmt.Fprintf(&b, " cand %v %v", st.Candidates(0, 1500, false, 0), st.Candidates(100, 400, true, 10))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPublishedSnapshotNeverChanges: learning writes clones only. While
// readers run, 2,000 learns touch every table kind, add attributes, force
// range-delta merges, and fork an older snapshot the way Personalize does;
// every published snapshot recorded before still answers exactly as it did.
func TestPublishedSnapshotNeverChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := Preprocess(mustWorkload(t, randomLog(rng, 300)), learnCfg)
	var cur, fork atomic.Pointer[Stats]
	cur.Store(base)
	learn := func(p *atomic.Pointer[Stats], sql string) {
		next := p.Load().Clone()
		next.AddQuery(sqlparse.MustParse(sql), learnCfg)
		p.Store(next)
	}

	var mu sync.Mutex
	type recorded struct {
		s    *Stats
		want string
	}
	published := []recorded{{base, readerAnswers(base)}}
	snapshot := func() []recorded {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(published)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range snapshot() {
					if got := readerAnswers(p.s); got != p.want {
						t.Errorf("a published snapshot changed while learning:\n%s\nwant\n%s", got, p.want)
						return
					}
				}
				readerAnswers(cur.Load())
				if f := fork.Load(); f != nil {
					readerAnswers(f)
				}
			}
		}()
	}

	history := []string{
		"SELECT * FROM T WHERE Year BETWEEN 10 AND 40 AND hood IN ('h3')",
		"SELECT * FROM T WHERE price BETWEEN 100 AND 150 AND garage = 'g9'",
		"SELECT * FROM Other WHERE year >= 1",
	}
	var older *Stats
	merges, lastBase := 0, -1
	for i := 0; i < 2000; i++ {
		learn(&cur, randomQuery(rng, i))
		if n := len(cur.Load().attrs["price"].ranges.los); n != lastBase {
			merges, lastBase = merges+1, n
		}
		switch {
		case i == 500 || i == 1500:
			s := cur.Load()
			mu.Lock()
			published = append(published, recorded{s, readerAnswers(s)})
			mu.Unlock()
			if i == 500 {
				older = s
			}
		case i == 1000:
			// Personalize: clone an older snapshot, fold a history in 3 times.
			f := older.Clone()
			for w := 0; w < 3; w++ {
				for _, h := range history {
					f.AddQuery(sqlparse.MustParse(h), learnCfg)
				}
			}
			fork.Store(f)
		case i > 1000:
			learn(&fork, randomQuery(rng, i))
		}
	}
	close(stop)
	wg.Wait()
	for i, p := range snapshot() {
		if got := readerAnswers(p.s); got != p.want {
			t.Fatalf("published snapshot %d changed:\n%s\nwant\n%s", i, got, p.want)
		}
	}
	if merges < 4 {
		t.Fatalf("price's range base changed %d times; want several delta merges", merges)
	}
}

// TestLearningEqualsRemining: after K learns, each on a fresh clone as the
// serving path does, the tables equal Preprocess over the base log plus the
// learned queries — and so does a Save/LoadStats round trip of them.
func TestLearningEqualsRemining(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	log := randomLog(rng, 400)
	cur := Preprocess(mustWorkload(t, log), learnCfg)
	merges, lastBase := 0, len(cur.attrs["price"].ranges.los)
	for i := 0; i < 1500; i++ {
		sql := randomQuery(rng, i)
		log = append(log, sql)
		next := cur.Clone()
		next.AddQuery(sqlparse.MustParse(sql), learnCfg)
		cur = next
		ri := cur.attrs["price"].ranges
		if n := len(ri.los); n != lastBase {
			merges, lastBase = merges+1, n
		}
		if d := len(ri.dlos); d*d > len(ri.los)+2*d+1 {
			t.Fatalf("learn %d: range delta of %d over a base of %d; want at most about √N", i, d, len(ri.los))
		}
		if i%300 != 299 {
			continue
		}
		want := dumpStats(Preprocess(mustWorkload(t, log), learnCfg))
		if got := dumpStats(cur); got != want {
			t.Fatalf("after %d learns the tables differ from re-mining:\n%s\nwant\n%s", i+1, got, want)
		}
		var buf bytes.Buffer
		if err := cur.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadStats(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got := dumpStats(loaded); got != want {
			t.Fatalf("after %d learns a Save/LoadStats round trip differs from re-mining:\n%s\nwant\n%s", i+1, got, want)
		}
	}
	if merges < 4 {
		t.Fatalf("price's range base changed %d times; want several delta merges", merges)
	}
}

// TestRerankMatchesFullSort: after every learn, including ties and
// attributes seen for the first time, the rank order equals a full sort by
// usage descending, lower-cased name ascending.
func TestRerankMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"a", "B", "c", "D", "e", "f0", "F1"}
	s := Preprocess(&Workload{}, Config{})
	for i := 0; i < 3000; i++ {
		var conds []string
		for _, n := range names[:min(len(names), 2+i/50)] {
			if rng.Intn(3) == 0 {
				conds = append(conds, n+" IN ('x')")
			}
		}
		sql := "SELECT * FROM T"
		if len(conds) > 0 {
			sql += " WHERE " + strings.Join(conds, " AND ")
		}
		if i%2 == 0 {
			s = s.Clone()
		}
		s.AddQuery(sqlparse.MustParse(sql), Config{})
		want := slices.Clone(s.byFreq)
		sort.Slice(want, func(i, j int) bool {
			if ui, uj := s.attrs[want[i]].usage, s.attrs[want[j]].usage; ui != uj {
				return ui > uj
			}
			return want[i] < want[j]
		})
		if !slices.Equal(s.byFreq, want) {
			t.Fatalf("learn %d: rank %v; want %v", i, s.byFreq, want)
		}
	}
	if got := s.AttrsByUsage(); len(got) != len(names) {
		t.Fatalf("AttrsByUsage = %v; want all of %v", got, names)
	}
}
