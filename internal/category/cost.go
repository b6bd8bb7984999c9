package category

// This file implements the analytical cost models of §4.1: the expected
// number of items (category labels + data tuples) a user examines while
// exploring a tree, for the ALL scenario (find every relevant tuple, Eq. 1)
// and the ONE scenario (stop at the first relevant tuple, Eq. 2). Both
// consume the probabilities P (explore) and Pw (SHOWTUPLES) annotated on
// each node by an Estimator.

// CostAll evaluates Eq. (1) on the subtree rooted at n:
//
//	CostAll(C) = Pw(C)·|tset(C)| + (1−Pw(C))·(K·n + Σᵢ P(Cᵢ)·CostAll(Cᵢ))
//
// with CostAll(C) = |tset(C)| at leaves (Pw = 1 there). K is the cost of
// examining one category label relative to one data tuple.
func CostAll(n *Node, k float64) float64 {
	if n.IsLeaf() {
		return float64(n.Size())
	}
	showcat := k * float64(len(n.Children))
	for _, c := range n.Children {
		showcat += c.P * CostAll(c, k)
	}
	return n.Pw*float64(n.Size()) + (1-n.Pw)*showcat
}

// CostOne evaluates Eq. (2) on the subtree rooted at n:
//
//	CostOne(C) = Pw(C)·frac(C)·|tset(C)|
//	           + (1−Pw(C))·Σᵢ (Πⱼ<ᵢ (1−P(Cⱼ))) · P(Cᵢ) · (K·i + CostOne(Cᵢ))
//
// frac is the expected fraction of a tuple list scanned before the first
// relevant tuple (the paper leaves its estimator open; 0.5 is the uniform
// default).
func CostOne(n *Node, k, frac float64) float64 {
	if n.IsLeaf() {
		return frac * float64(n.Size())
	}
	var (
		sum       float64
		noneSoFar = 1.0
	)
	for i, c := range n.Children {
		sum += noneSoFar * c.P * (k*float64(i+1) + CostOne(c, k, frac))
		noneSoFar *= 1 - c.P
	}
	return n.Pw*frac*float64(n.Size()) + (1-n.Pw)*sum
}

// TreeCostAll is CostAll of the whole tree (the root is always explored).
func TreeCostAll(t *Tree) float64 { return CostAll(t.Root, t.K) }

// TreeCostOne is CostOne of the whole tree with the given frac.
func TreeCostOne(t *Tree, frac float64) float64 { return CostOne(t.Root, t.K, frac) }

// twoLevelCostAllSpecs evaluates Eq. (1) for the candidate two-level tree
// Tree(C, A) the level-by-level search builds during attribute selection
// (Figure 6): C as root with SHOWTUPLES probability pw = 1−NAttr(A)/N, and
// the proposed children as leaves. Reading sizes and exploration
// probabilities straight from a plan's childSpecs avoids materializing
// throw-away nodes in the inner loop of the search.
func twoLevelCostAllSpecs(parentSize int, pw, k float64, specs []childSpec) float64 {
	showcat := k * float64(len(specs))
	for i := range specs {
		showcat += specs[i].p * float64(len(specs[i].tset))
	}
	return pw*float64(parentSize) + (1-pw)*showcat
}
