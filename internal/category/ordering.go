package category

import "sort"

// This file implements the category-ordering results of §5.1.2 and
// Appendix A. The ALL-scenario cost is order-invariant; the ONE-scenario
// cost is minimized by presenting subcategories in increasing
// 1/P(Cᵢ) + CostOne(Cᵢ). Because CostOne(Cᵢ) is expensive to maintain in a
// multilevel search, the paper's algorithm orders by decreasing P(Cᵢ)
// (equivalently increasing 1/P); OrderOptimalOne implements the optimal
// order, and the tests hold it against the P order and an exhaustive search.

// OrderOptimalOne reorders n's children by increasing K/P(Cᵢ)+CostOne(Cᵢ),
// the optimal order for the ONE scenario. (Appendix A states the criterion
// as 1/P+Cost; redoing its swap argument with the label-examination cost K
// kept symbolic gives K/P+Cost, which reduces to the paper's form at K = 1.)
// Children with P = 0 sort last (their key is +Inf conceptually; we compare
// by cost among them).
func OrderOptimalOne(n *Node, k, frac float64) {
	type keyed struct {
		child *Node
		zero  bool
		key   float64
	}
	keys := make([]keyed, len(n.Children))
	for i, c := range n.Children {
		cost := CostOne(c, k, frac)
		if c.P == 0 {
			keys[i] = keyed{child: c, zero: true, key: cost}
		} else {
			keys[i] = keyed{child: c, key: k/c.P + cost}
		}
	}
	sort.SliceStable(keys, func(i, j int) bool {
		if keys[i].zero != keys[j].zero {
			return !keys[i].zero
		}
		return keys[i].key < keys[j].key
	})
	for i, kc := range keys {
		n.Children[i] = kc.child
	}
}

// OrderTreeOptimalOne applies OrderOptimalOne bottom-up to every node; child
// costs must be final before a parent is ordered, hence post-order.
func OrderTreeOptimalOne(t *Tree, frac float64) {
	var rec func(n *Node)
	rec = func(n *Node) {
		for _, c := range n.Children {
			rec(c)
		}
		OrderOptimalOne(n, t.K, frac)
	}
	rec(t.Root)
}
