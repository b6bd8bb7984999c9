package workload

import "repro/internal/sqlparse"

// AddQuery folds one more query into the count tables incrementally — the
// online form of Preprocess for systems that learn from the query stream
// they serve. It applies the same table filter and interval configuration
// the Stats were built with (pass the original Config). AddQuery is not
// safe for concurrent use with readers: a system that serves while learning
// writes a Clone and publishes it (see the repro facade's AdaptiveSystem).
// All reader methods stay strictly read-only, so any number of readers may
// run between (externally serialized) AddQuery calls. It reports whether it
// folded the query in: a query naming another table than cfg.Table is
// skipped and leaves the tables untouched.
func (s *Stats) AddQuery(q *sqlparse.Query, cfg Config) bool {
	if !cfg.covers(q) {
		return false
	}
	s.n++
	for _, c := range q.Conds {
		s.count(c, cfg, false)
	}
	s.rerank()
	return true
}

// writable returns the tables of attribute key (first seen as attr) for
// writing: created when new, copied first when this Stats does not own them.
func (s *Stats) writable(key, attr string) *attrStats {
	own := s.owner.Load()
	t := s.attrs[key]
	switch {
	case t == nil:
		t = &attrStats{owner: own, name: attr}
		s.attrs[key] = t
		s.byFreq = append(s.byFreq, key)
	case t.owner != own:
		t = t.copyFor(own)
		s.attrs[key] = t
	}
	return t
}

// rerank restores byFreq's order after a learn. Usage counts only grow, so
// the untouched attributes stay in order and each touched one climbs to its
// new rank: one insertion pass, O(attributes) comparisons plus one swap per
// rank climbed, instead of a full sort.
func (s *Stats) rerank() {
	o := s.byFreq
	for i := 1; i < len(o); i++ {
		for j := i; j > 0 && s.ranksBefore(o[j], o[j-1]); j-- {
			o[j], o[j-1] = o[j-1], o[j]
		}
	}
}
