package ranking

import (
	"sort"

	"repro/internal/category"
)

// RankTree reorders the tuple-set of every category in the tree by
// descending workload popularity. Category membership is untouched — only
// the presentation order within each tset changes — so a ONE-scenario user
// doing SHOWTUPLES anywhere in the tree reaches globally popular tuples
// first. This is the "categorization and ranking in complement" composition
// of §2.
func RankTree(r *Ranker, tree *category.Tree) {
	// Score each distinct tuple once; nodes share tuples with ancestors.
	cols := r.columns(tree.R)
	scores := make(map[int]float64, len(tree.Root.Tset))
	for _, row := range tree.Root.Tset {
		scores[row] = cols.score(row)
	}
	tree.Root.Walk(func(n *category.Node, _ int) bool {
		sortByScore(n.Tset, scores)
		return true
	})
}

// sortByScore stable-sorts rows by descending precomputed score.
func sortByScore(rows []int, scores map[int]float64) {
	type pair struct {
		row   int
		score float64
	}
	tmp := make([]pair, len(rows))
	for i, row := range rows {
		tmp[i] = pair{row, scores[row]}
	}
	sort.SliceStable(tmp, func(i, j int) bool { return tmp[i].score > tmp[j].score })
	for i, p := range tmp {
		rows[i] = p.row
	}
}
