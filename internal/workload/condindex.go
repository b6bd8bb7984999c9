package workload

import "repro/internal/sqlparse"

// CondIndex retains the workload's per-query selection conditions so that
// conditional (path-aware) probabilities can be computed at query time. The
// count tables of Stats assume the §5.2 independence of attributes; this
// index supports the paper's proposed refinement — "leveraging the
// correlations captured in the workload" — by answering questions of the
// form "among users interested in the path so far, how many are interested
// in this label?".
//
// Callers maintain the path incrementally: start from AllIDs (every query is
// compatible with the empty path), and derive a child's compatible set with
// FilterCompatible as the tree grows. CountChildren then answers the
// conditional numerators/denominators in one pass over the compatible set.
type CondIndex struct {
	// The queries in order, as an append-only list of chunks: sealed chunks
	// hold exactly condChunk queries and are never written again, so clones
	// share them; open is the partly filled last chunk, private to one index.
	sealed [][]*sqlparse.Query
	open   []*sqlparse.Query
}

// condChunk is the number of queries per sealed chunk, a power of two.
const condChunk = 256

// NewCondIndex builds the index over the workload's queries (filtered by
// cfg.Table like Preprocess).
func NewCondIndex(w *Workload, cfg Config) *CondIndex {
	idx := &CondIndex{}
	for _, q := range w.Queries {
		idx.Add(q, cfg)
	}
	return idx
}

// N returns the number of indexed queries.
func (idx *CondIndex) N() int { return len(idx.sealed)*condChunk + len(idx.open) }

// query returns the query with identifier i.
func (idx *CondIndex) query(i int) *sqlparse.Query {
	if c := i / condChunk; c < len(idx.sealed) {
		return idx.sealed[c][i%condChunk]
	}
	return idx.open[i-len(idx.sealed)*condChunk]
}

// Add appends one more query to the index (the online-learning companion of
// Stats.AddQuery). Not safe for concurrent use with readers.
func (idx *CondIndex) Add(q *sqlparse.Query, cfg Config) {
	if !cfg.covers(q) {
		return
	}
	if idx.open == nil {
		idx.open = make([]*sqlparse.Query, 0, condChunk)
	}
	idx.open = append(idx.open, q)
	if len(idx.open) == condChunk {
		idx.sealed = append(idx.sealed, idx.open)
		idx.open = nil
	}
}

// AllIDs returns the identifiers of every indexed query — the compatible
// set of the empty path. The returned slice is fresh and owned by the
// caller.
func (idx *CondIndex) AllIDs() []int {
	ids := make([]int, idx.N())
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// PathPred describes one step of a category path as a predicate over a
// workload query's condition on Attr. Exactly one of the value or range
// fields is meaningful, selected by IsRange.
type PathPred struct {
	Attr    string
	IsRange bool
	Value   string   // single-value categorical label
	Values  []string // multi-value categorical label ("Other" categories)
	Lo, Hi  float64  // numeric bucket [Lo, Hi); pass an epsilon-adjusted Hi for closed buckets
}

// Matches reports whether query q is compatible with the path step: a query
// without a condition on the attribute is interested in all its values
// (§4.2), so it matches; otherwise its condition must overlap the label.
func (p PathPred) Matches(q *sqlparse.Query) bool {
	c := q.Cond(p.Attr)
	if c == nil {
		return true
	}
	if p.IsRange {
		if !c.IsRange {
			return true // kind mismatch cannot arise from one schema; permissive
		}
		return c.OverlapsInterval(p.Lo, p.Hi)
	}
	if c.IsRange {
		return true
	}
	if len(p.Values) > 0 {
		for _, qv := range c.Values {
			for _, pv := range p.Values {
				if qv == pv {
					return true
				}
			}
		}
		return false
	}
	for _, v := range c.Values {
		if v == p.Value {
			return true
		}
	}
	return false
}

// FilterCompatible narrows a compatible set by one more path step. ids must
// be a set previously produced by AllIDs or FilterCompatible.
func (idx *CondIndex) FilterCompatible(ids []int, step PathPred) []int {
	out := make([]int, 0, len(ids))
	for _, qi := range ids {
		if step.Matches(idx.query(qi)) {
			out = append(out, qi)
		}
	}
	return out
}

// CountChildren counts, within the path-compatible set ids, the queries
// carrying a condition on attr (attrN — the denominator of the conditional
// exploration probabilities, and the numerator of the conditional SHOWCAT
// probability over len(ids)), and how many of those overlap each child
// label.
func (idx *CondIndex) CountChildren(ids []int, attr string, children []PathPred) (attrN int, overlap []int) {
	overlap = make([]int, len(children))
	for _, qi := range ids {
		q := idx.query(qi)
		if q.Cond(attr) == nil {
			continue
		}
		attrN++
		for i := range children {
			// Matches treats "no condition" as overlap, but every query here
			// has a condition on attr, so this is true label overlap.
			if children[i].Matches(q) {
				overlap[i]++
			}
		}
	}
	return attrN, overlap
}
