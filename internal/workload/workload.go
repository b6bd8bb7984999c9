// Package workload implements the paper's workload mining layer (§4.2, §5):
// it holds a log of past SQL queries and preprocesses it into the three
// kinds of count tables the categorizer consults at query time —
//
//   - AttributeUsageCounts: NAttr(A), how many queries filter on A (Fig 4a);
//   - OccurrenceCounts: occ(v), per categorical attribute, how many queries
//     mention value v in an IN clause (Fig 4b);
//   - SplitPoints: per numeric attribute, how many query ranges start or end
//     at each grid point, whose sum is the splitpoint "goodness" (Fig 5b).
//
// It additionally maintains, per numeric attribute, a sorted range index so
// NOverlap(C) — the number of workload ranges overlapping a label bucket —
// is answered by binary search. Learning folds queries into copy-on-write
// clones of the tables (clone.go), never into a published Stats.
package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/sqlparse"
)

// Workload is an ordered log of parsed queries.
type Workload struct {
	Queries []*sqlparse.Query
}

// ParseLog parses one query per non-empty line from r. Lines that fail to
// parse are skipped and counted; real query logs contain noise and the
// paper's pipeline only needs the parseable majority.
func ParseLog(r io.Reader) (*Workload, int, error) {
	w := &Workload{}
	skipped := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "--") {
			continue
		}
		q, err := sqlparse.Parse(line)
		if err != nil {
			skipped++
			continue
		}
		w.Queries = append(w.Queries, q)
	}
	if err := sc.Err(); err != nil {
		return nil, skipped, fmt.Errorf("workload: reading log: %w", err)
	}
	return w, skipped, nil
}

// ParseStrings parses a workload from SQL strings, failing on the first
// malformed query. Use ParseLog for tolerant ingestion.
func ParseStrings(queries []string) (*Workload, error) {
	w := &Workload{Queries: make([]*sqlparse.Query, 0, len(queries))}
	for i, s := range queries {
		q, err := sqlparse.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("workload: query %d: %w", i, err)
		}
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}

// Len returns the number of queries N in the workload.
func (w *Workload) Len() int { return len(w.Queries) }

// Split partitions the workload into the queries whose index satisfies keep
// and the rest. It is the cross-validation primitive of §6.2: hold out a
// subset as synthetic explorations, build count tables on the remainder.
func (w *Workload) Split(keep func(i int) bool) (kept, held *Workload) {
	kept, held = &Workload{}, &Workload{}
	for i, q := range w.Queries {
		if keep(i) {
			kept.Queries = append(kept.Queries, q)
		} else {
			held.Queries = append(held.Queries, q)
		}
	}
	return kept, held
}

// Config controls preprocessing.
type Config struct {
	// Table restricts mining to queries over this table (case-insensitive).
	// Empty means all queries.
	Table string
	// Intervals gives the separation interval between potential splitpoints
	// for each numeric attribute (the paper uses 5000 for price, 100 for
	// square footage, 5 for year-built). Attributes without an entry fall
	// back to DefaultInterval.
	Intervals map[string]float64
	// DefaultInterval is the splitpoint grid spacing for numeric attributes
	// not listed in Intervals. Zero means 1.
	DefaultInterval float64
}

// covers reports whether q is mined under cfg's table filter.
func (cfg Config) covers(q *sqlparse.Query) bool {
	return cfg.Table == "" || strings.EqualFold(q.Table, cfg.Table)
}

// interval returns the splitpoint grid spacing of attr, whose lower-cased
// form is key.
func (cfg Config) interval(key, attr string) float64 {
	for _, iv := range []float64{cfg.Intervals[key], cfg.Intervals[attr], cfg.DefaultInterval} {
		if iv != 0 {
			return iv
		}
	}
	return 1
}

// Stats is the preprocessed form of a workload: the count tables plus range
// indexes. Build it once (offline, per the paper) and share it across
// queries; it is read-only after construction and safe for concurrent use.
// Online learning writes a Clone, never a published Stats (clone.go).
type Stats struct {
	n     int
	attrs map[string]*attrStats // lower(attr) -> that attribute's tables
	// byFreq holds the keys of attrs by NAttr descending, key ascending on
	// ties. AddQuery reorders it in place, so its backing array belongs to
	// this Stats alone.
	byFreq []string
	// owner tags the tables this Stats may write in place (clone.go).
	owner atomic.Uint64
}

// attrStats holds one attribute's count tables. A Stats and its clones share
// them; only the Stats whose owner tag they carry writes them.
type attrStats struct {
	owner  uint64
	name   string         // the attribute's case at first sight
	usage  int            // NAttr
	occ    map[string]int // value -> occ(v); nil without an IN condition
	splits *SplitTable    // nil without a range condition
	ranges *rangeIndex    // nil without a range condition
}

func newStats() *Stats {
	s := &Stats{attrs: make(map[string]*attrStats)}
	s.owner.Store(newOwner())
	return s
}

// Preprocess scans the workload once and builds the count tables.
func Preprocess(w *Workload, cfg Config) *Stats {
	s := newStats()
	for _, q := range w.Queries {
		if !cfg.covers(q) {
			continue
		}
		s.n++
		for _, c := range q.Conds {
			s.count(c, cfg, true)
		}
	}
	for _, t := range s.attrs {
		if t.ranges != nil {
			sort.Float64s(t.ranges.los)
			sort.Float64s(t.ranges.his)
		}
	}
	s.sortByFreq()
	return s
}

// count folds one condition into its attribute's tables. A batch build
// appends range bounds unsorted to the base (Preprocess sorts them once);
// otherwise they go to the sorted delta.
func (s *Stats) count(c *sqlparse.Condition, cfg Config, batch bool) {
	key := strings.ToLower(c.Attr)
	t := s.writable(key, c.Attr)
	t.usage++
	if !c.IsRange {
		if t.occ == nil {
			t.occ = make(map[string]int)
		}
		for _, v := range c.Values {
			t.occ[v]++
		}
		return
	}
	if t.splits == nil {
		t.splits = &SplitTable{Interval: cfg.interval(key, c.Attr), start: make(map[float64]int), end: make(map[float64]int)}
	}
	if t.ranges == nil {
		t.ranges = &rangeIndex{}
	}
	lo, hi := c.Interval()
	if !math.IsInf(lo, -1) {
		t.splits.start[t.splits.snap(lo)]++
	}
	if !math.IsInf(hi, 1) {
		t.splits.end[t.splits.snap(hi)]++
	}
	if c.LoStrict {
		lo = math.Nextafter(lo, math.Inf(1))
	}
	if c.HiStrict {
		hi = math.Nextafter(hi, math.Inf(-1))
	}
	if batch {
		t.ranges.los = append(t.ranges.los, lo)
		t.ranges.his = append(t.ranges.his, hi)
	} else {
		t.ranges.insert(lo, hi)
	}
}

// sortByFreq sorts byFreq into rank order with one full sort.
func (s *Stats) sortByFreq() {
	sort.Slice(s.byFreq, func(i, j int) bool { return s.ranksBefore(s.byFreq[i], s.byFreq[j]) })
}

// ranksBefore reports whether attribute key a ranks before key b in byFreq.
func (s *Stats) ranksBefore(a, b string) bool {
	if ua, ub := s.attrs[a].usage, s.attrs[b].usage; ua != ub {
		return ua > ub
	}
	return a < b
}

// N returns the number of mined queries.
func (s *Stats) N() int { return s.n }

// NAttr returns the number of workload queries carrying a selection
// condition on attr (case-insensitive).
func (s *Stats) NAttr(attr string) int {
	if t := s.attrs[strings.ToLower(attr)]; t != nil {
		return t.usage
	}
	return 0
}

// UsageFraction returns NAttr(attr)/N, the fraction of users interested in
// only a few values of attr — the SHOWCAT probability when attr
// subcategorizes a node. It is 0 for an empty workload.
func (s *Stats) UsageFraction(attr string) float64 { return s.fraction(s.NAttr(attr)) }

func (s *Stats) fraction(usage int) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(usage) / float64(s.n)
}

// Occ returns occ(v): how many workload queries mention value v of the
// categorical attribute attr in an IN clause (or equality).
func (s *Stats) Occ(attr, v string) int {
	if t := s.attrs[strings.ToLower(attr)]; t != nil {
		return t.occ[v]
	}
	return 0
}

// Splits returns the splitpoint table for the numeric attribute attr, or nil
// if the workload contains no range condition on it.
func (s *Stats) Splits(attr string) *SplitTable {
	if t := s.attrs[strings.ToLower(attr)]; t != nil {
		return t.splits
	}
	return nil
}

// NOverlapValues counts workload queries whose IN condition on attr mentions
// at least one value in set. For the single-value categories the algorithm
// builds this equals Occ; the general form supports multi-value labels.
func (s *Stats) NOverlapValues(attr string, set map[string]struct{}) int {
	if len(set) == 1 {
		for v := range set {
			return s.Occ(attr, v)
		}
	}
	// Without per-query inverted lists, bound the overlap count by the sum
	// of member occurrence counts capped at NAttr. Exact counting for
	// multi-value labels would require retaining query-id lists; the
	// algorithm only creates single-value categorical labels (§5.1.2).
	sum := 0
	for v := range set {
		sum += s.Occ(attr, v)
	}
	if na := s.NAttr(attr); sum > na {
		return na
	}
	return sum
}

// NOverlapRange counts workload queries whose range condition on attr
// overlaps the half-open label bucket [lo, hi).
func (s *Stats) NOverlapRange(attr string, lo, hi float64) int {
	t := s.attrs[strings.ToLower(attr)]
	if t == nil || t.ranges == nil {
		return 0
	}
	return t.ranges.countOverlapping(lo, hi)
}

// AttrsByUsage returns all attributes seen in the workload, most-used first.
func (s *Stats) AttrsByUsage() []string {
	out := make([]string, len(s.byFreq))
	for i, key := range s.byFreq {
		out[i] = s.attrs[key].name
	}
	return out
}

// Retained returns the attributes surviving the elimination heuristic of
// §5.1.1: those with NAttr(A)/N ≥ x, most-used first.
func (s *Stats) Retained(x float64) []string {
	var out []string
	for _, key := range s.byFreq {
		if t := s.attrs[key]; s.fraction(t.usage) >= x {
			out = append(out, t.name)
		}
	}
	return out
}

// rangeIndex answers "how many ranges overlap [lo, hi)" by binary search
// over the sorted lower and upper bounds of all mined ranges on one
// attribute. A range [l, h] overlaps [lo, hi) iff l < hi and h >= lo; the
// complement (h < lo, or l >= hi) is countable from the sorted slices, and
// the two failure modes are mutually exclusive when lo < hi.
//
// The bounds live in two parts. The base is immutable once built, so a
// Stats and its clones share it. The delta holds the ranges learned since
// the base was built, belongs to one Stats, and merges into a freshly
// allocated base once it passes about √N entries: a learn costs O(√N)
// amortized and copies no base. Both parts are sorted, so a count is the
// exact sum of the two parts' counts.
type rangeIndex struct {
	los, his   []float64 // base, sorted; ±Inf for open bounds
	dlos, dhis []float64 // delta, sorted
}

func (ri *rangeIndex) countOverlapping(lo, hi float64) int {
	if hi <= lo {
		return 0
	}
	return overlapping(ri.los, ri.his, lo, hi) + overlapping(ri.dlos, ri.dhis, lo, hi)
}

// overlapping counts the ranges of one sorted part that overlap [lo, hi).
func overlapping(los, his []float64, lo, hi float64) int {
	endsBefore := sort.SearchFloat64s(his, lo)             // ranges with h < lo
	startsAfter := len(los) - sort.SearchFloat64s(los, hi) // ranges with l >= hi
	return len(los) - endsBefore - startsAfter
}

// insert adds one range to the delta, first merging the delta into a fresh
// base when it has passed √N entries. The caller owns the delta.
func (ri *rangeIndex) insert(lo, hi float64) {
	if d := len(ri.dlos); d*d > len(ri.los) {
		ri.los, ri.his = ri.merged()
		ri.dlos, ri.dhis = ri.dlos[:0], ri.dhis[:0]
	}
	ri.dlos = insertSorted(ri.dlos, lo)
	ri.dhis = insertSorted(ri.dhis, hi)
}

// merged returns the sorted union of base and delta bounds: the base itself
// when the delta is empty, else freshly allocated slices.
func (ri *rangeIndex) merged() (los, his []float64) {
	if len(ri.dlos) == 0 {
		return ri.los, ri.his
	}
	return mergeSorted(ri.los, ri.dlos), mergeSorted(ri.his, ri.dhis)
}

func insertSorted(xs []float64, v float64) []float64 {
	i := sort.SearchFloat64s(xs, v)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

func mergeSorted(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0] < a[0] {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	return append(append(out, a...), b...)
}

// SplitTable is the per-attribute splitpoints table of Figure 5(b):
// potential splitpoints lie on a fixed grid of spacing Interval, and each
// carries the number of workload ranges starting and ending there.
type SplitTable struct {
	Interval   float64
	start, end map[float64]int
}

// snap rounds v to the nearest grid point.
func (st *SplitTable) snap(v float64) float64 {
	return math.Round(v/st.Interval) * st.Interval
}

// Goodness returns the splitpoint score SUM(start_v, end_v) of grid point v
// (§5.1.3). Non-grid values score 0.
func (st *SplitTable) Goodness(v float64) int {
	return st.start[v] + st.end[v]
}

// StartEnd returns the raw start and end counts at grid point v.
func (st *SplitTable) StartEnd(v float64) (start, end int) {
	return st.start[v], st.end[v]
}

// Splitpoint is a candidate splitpoint with its goodness score.
type Splitpoint struct {
	Value    float64
	Goodness int
}

// Candidates returns the potential splitpoints strictly inside (lo, hi),
// ordered by goodness descending (value ascending on ties). Grid points with
// zero goodness are included only when includeZero is set — they allow the
// partitioner to fall back to arbitrary interior points when the workload
// offers too few scored points — and the enumeration is capped at maxZero
// zero-goodness points spread evenly across the range.
func (st *SplitTable) Candidates(lo, hi float64, includeZero bool, maxZero int) []Splitpoint {
	var out []Splitpoint
	seen := make(map[float64]struct{})
	add := func(v float64, g int) {
		if v <= lo || v >= hi {
			return
		}
		if _, dup := seen[v]; dup {
			return
		}
		seen[v] = struct{}{}
		out = append(out, Splitpoint{Value: v, Goodness: g})
	}
	for v := range st.start {
		add(v, st.Goodness(v))
	}
	for v := range st.end {
		add(v, st.Goodness(v))
	}
	if includeZero && maxZero > 0 {
		first := math.Floor(lo/st.Interval)*st.Interval + st.Interval
		total := int((hi - first) / st.Interval)
		if total > 0 {
			step := 1
			if total > maxZero {
				step = (total + maxZero - 1) / maxZero
			}
			for i := 0; i <= total; i += step {
				add(first+float64(i)*st.Interval, st.Goodness(first+float64(i)*st.Interval))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Goodness != out[j].Goodness {
			return out[i].Goodness > out[j].Goodness
		}
		return out[i].Value < out[j].Value
	})
	return out
}
