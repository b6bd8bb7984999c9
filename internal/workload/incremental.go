package workload

import (
	"math"
	"sort"
	"strings"

	"repro/internal/sqlparse"
)

// AddQuery folds one more query into the count tables incrementally — the
// online form of Preprocess for systems that learn from the query stream
// they serve. It applies the same table filter and interval configuration
// the Stats were built with (pass the original Config). AddQuery is not
// safe for concurrent use with readers; callers that serve while learning
// must serialize access (see the repro facade's AdaptiveSystem). All reader
// methods stay strictly read-only, so any number of readers may run between
// (externally serialized) AddQuery calls. It reports whether it folded the
// query in: a query naming another table than cfg.Table is skipped and
// leaves the tables untouched.
func (s *Stats) AddQuery(q *sqlparse.Query, cfg Config) bool {
	if cfg.Table != "" && !strings.EqualFold(q.Table, cfg.Table) {
		return false
	}
	defer s.resortByFreq()
	s.n++
	for _, c := range q.Conds {
		key := strings.ToLower(c.Attr)
		if s.caseOf == nil {
			s.caseOf = make(map[string]string)
		}
		if _, ok := s.caseOf[key]; !ok {
			s.caseOf[key] = c.Attr
		}
		s.attrUsage[key]++
		if !c.IsRange {
			m := s.occ[key]
			if m == nil {
				m = make(map[string]int)
				s.occ[key] = m
			}
			for _, v := range c.Values {
				m[v]++
			}
			continue
		}
		st := s.splits[key]
		if st == nil {
			iv := cfg.Intervals[key]
			if iv == 0 {
				iv = cfg.Intervals[c.Attr]
			}
			if iv == 0 {
				iv = cfg.DefaultInterval
			}
			if iv == 0 {
				iv = 1
			}
			st = &SplitTable{Interval: iv, start: make(map[float64]int), end: make(map[float64]int)}
			s.splits[key] = st
		}
		lo, hi := c.Interval()
		if !math.IsInf(lo, -1) {
			st.start[st.snap(lo)]++
		}
		if !math.IsInf(hi, 1) {
			st.end[st.snap(hi)]++
		}
		ri := s.ranges[key]
		if ri == nil {
			ri = &rangeIndex{}
			s.ranges[key] = ri
		}
		elo, ehi := lo, hi
		if c.LoStrict {
			elo = math.Nextafter(elo, math.Inf(1))
		}
		if c.HiStrict {
			ehi = math.Nextafter(ehi, math.Inf(-1))
		}
		ri.insert(elo, ehi)
	}
	return true
}

// insert adds one range keeping the bound slices sorted.
func (ri *rangeIndex) insert(lo, hi float64) {
	i := sort.SearchFloat64s(ri.los, lo)
	ri.los = append(ri.los, 0)
	copy(ri.los[i+1:], ri.los[i:])
	ri.los[i] = lo
	j := sort.SearchFloat64s(ri.his, hi)
	ri.his = append(ri.his, 0)
	copy(ri.his[j+1:], ri.his[j:])
	ri.his[j] = hi
}
