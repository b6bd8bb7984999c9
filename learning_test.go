package repro

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/workload"
)

// mergeLog is the reference Personalize must agree with: the base log, then
// the personal history repeated weight times, weight < 1 counting once.
func mergeLog(base, personal *workload.Workload, weight int) *workload.Workload {
	out := &workload.Workload{Queries: slices.Clone(base.Queries)}
	for i := 0; i < max(weight, 1); i++ {
		out.Queries = append(out.Queries, personal.Queries...)
	}
	return out
}

// statsAnswers records every reader answer of s over the attributes and
// values the log mentions: usage, occ, splitpoint tables with their
// candidates, and range overlaps between consecutive scored grid points.
func statsAnswers(s *WorkloadStats, log *workload.Workload) string {
	values := map[string][]string{}
	for _, q := range log.Queries {
		for _, c := range q.Conds {
			key := strings.ToLower(c.Attr)
			values[key] = append(values[key], c.Values...)
		}
	}
	attrs := make([]string, 0, len(values))
	for a := range values {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	var b strings.Builder
	fmt.Fprintf(&b, "N %d by usage %v retained %v\n", s.N(), s.AttrsByUsage(), s.Retained(0.4))
	for _, a := range attrs {
		fmt.Fprintf(&b, "%s NAttr %d occ", a, s.NAttr(a))
		vs := values[a]
		sort.Strings(vs)
		for _, v := range slices.Compact(vs) {
			fmt.Fprintf(&b, " %s:%d", v, s.Occ(a, v))
		}
		if st := s.Splits(a); st != nil {
			cands := st.Candidates(math.Inf(-1), math.Inf(1), false, 0)
			fmt.Fprintf(&b, " interval %v cands %v overlap", st.Interval, cands)
			edges := []float64{math.Inf(-1)}
			for _, c := range cands {
				edges = append(edges, c.Value)
			}
			sort.Float64s(edges)
			edges = append(edges, math.Inf(1))
			for i := 1; i < len(edges); i++ {
				start, end := st.StartEnd(edges[i])
				fmt.Fprintf(&b, " %d/%d:%d", start, end, s.NOverlapRange(a, edges[i-1], edges[i]))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// condAnswers records what a correlation index answers along a few root
// paths: the compatible set sizes and the conditional child counts.
func condAnswers(idx *workload.CondIndex) string {
	paths := [][]workload.PathPred{
		nil,
		{{Attr: "neighborhood", Value: "Seattle, WA"}},
		{{Attr: "price", IsRange: true, Lo: 200000, Hi: 300000}},
		{{Attr: "neighborhood", Value: "Bellevue, WA"}, {Attr: "yearbuilt", IsRange: true, Lo: 1900, Hi: 1945}},
	}
	children := []workload.PathPred{
		{Attr: "yearbuilt", IsRange: true, Lo: 1900, Hi: 1930},
		{Attr: "yearbuilt", IsRange: true, Lo: 1930, Hi: 2010},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "N %d", idx.N())
	for _, path := range paths {
		ids := idx.AllIDs()
		for _, step := range path {
			ids = idx.FilterCompatible(ids, step)
		}
		n, overlap := idx.CountChildren(ids, "yearbuilt", children)
		fmt.Fprintf(&b, " | %d ids, %d with yearbuilt, %v", len(ids), n, overlap)
	}
	return b.String()
}

// TestPersonalizeMatchesMergedLog: Personalize (clone the statistics, fold
// the history in weight times) gives the statistics — and, with
// correlations on, the correlation index — that re-mining the base log plus
// the repeated history gives, and leaves the base system as it was.
func TestPersonalizeMatchesMergedLog(t *testing.T) {
	rel := DemoDataset(1500, 1)
	logSQL := DemoWorkloadSQL(800, 2)
	base, err := workload.ParseStrings(logSQL)
	if err != nil {
		t.Fatal(err)
	}
	historySQL := []string{
		"SELECT * FROM ListProperty WHERE yearbuilt <= 1940",
		"SELECT * FROM ListProperty WHERE YearBuilt BETWEEN 1900 AND 1930 AND neighborhood IN ('Bellevue, WA')",
		"SELECT * FROM OtherTable WHERE price >= 1 AND yearbuilt >= 2000",
		"SELECT * FROM ListProperty WHERE price > 200000 AND price < 300000",
	}
	history, err := workload.ParseStrings(historySQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, corr := range []bool{false, true} {
		sys, err := NewSystem(rel, Config{WorkloadSQL: logSQL, Intervals: DemoIntervals(), Correlations: corr})
		if err != nil {
			t.Fatal(err)
		}
		probe := mergeLog(base, history, 1)
		baseWant := statsAnswers(sys.stats, probe)
		for _, weight := range []int{0, 1, 3} {
			p, err := sys.Personalize(historySQL, weight)
			if err != nil {
				t.Fatal(err)
			}
			merged := mergeLog(base, history, weight)
			want := workload.Preprocess(merged, *sys.wcfg)
			if got, want := statsAnswers(p.stats, probe), statsAnswers(want, probe); got != want {
				t.Fatalf("corr %v weight %d: Personalize statistics differ from re-mining the merged log:\n%s\nwant\n%s", corr, weight, got, want)
			}
			if corr {
				if got, want := condAnswers(p.corr), condAnswers(workload.NewCondIndex(merged, *sys.wcfg)); got != want {
					t.Fatalf("weight %d: Personalize correlation index %s; want %s", weight, got, want)
				}
			}
		}
		if got := statsAnswers(sys.stats, probe); got != baseWant {
			t.Fatalf("corr %v: Personalize changed the base system's statistics", corr)
		}
		if corr {
			if got, want := condAnswers(sys.corr), condAnswers(workload.NewCondIndex(base, *sys.wcfg)); got != want {
				t.Fatalf("Personalize changed the base correlation index: %s; want %s", got, want)
			}
		}
	}
}

// TestLearnAllocationFlat: a learn copies only what its query touches and
// keeps no query log, so the bytes it allocates do not grow with the number
// of queries learned before it.
func TestLearnAllocationFlat(t *testing.T) {
	sys, err := NewSystem(DemoDataset(500, 1), Config{
		WorkloadSQL: DemoWorkloadSQL(1000, 2),
		Intervals:   DemoIntervals(),
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Adaptive()
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.ParseStrings(DemoWorkloadSQL(500, 3))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	learn := func(n int) {
		for i := 0; i < n; i++ {
			a.LearnQuery(stream.Queries[next%len(stream.Queries)])
			next++
		}
	}
	bytesPerLearn := func(n int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		learn(n)
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	const window = 500
	learn(1000 - window/2)
	at1k := bytesPerLearn(window)
	learn(10000 - next - window/2)
	at10k := bytesPerLearn(window)
	t.Logf("bytes per learn: %.0f after 1k learns, %.0f after 10k", at1k, at10k)
	if at10k > 2*at1k {
		t.Fatalf("bytes per learn grew from %.0f after 1k learns to %.0f after 10k", at1k, at10k)
	}
}
