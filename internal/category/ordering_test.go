package category

import "sort"

// Test-only references for the §5.1.2 / Appendix A ordering tests.

// OrderByP reorders n's children by decreasing exploration probability — the
// heuristic the multilevel algorithm uses for categorical levels. The sort
// is stable so equal-probability categories keep their prior order.
func OrderByP(n *Node) {
	sort.SliceStable(n.Children, func(i, j int) bool {
		return n.Children[i].P > n.Children[j].P
	})
}

// BestOrderBruteForce returns the minimum CostOne achievable by permuting
// n's immediate children, found by exhaustive search. It is exponential and
// exists to verify the Appendix-A theorem; n's child order is left
// unchanged.
func BestOrderBruteForce(n *Node, k, frac float64) float64 {
	children := append([]*Node(nil), n.Children...)
	defer func() { n.Children = children }()
	best := 0.0
	first := true
	permute(n.Children, 0, func() {
		c := CostOne(n, k, frac)
		if first || c < best {
			best, first = c, false
		}
	})
	return best
}

// permute enumerates permutations of s[i:] in place, calling f for each.
func permute(s []*Node, i int, f func()) {
	if i == len(s) {
		f()
		return
	}
	for j := i; j < len(s); j++ {
		s[i], s[j] = s[j], s[i]
		permute(s, i+1, f)
		s[i], s[j] = s[j], s[i]
	}
}
