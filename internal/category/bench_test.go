package category

import (
	"fmt"
	"testing"
)

// BenchmarkCategorize measures tree construction over growing results;
// rows=20000 is the large synthetic dataset the columnar substrate is
// sized against.
func BenchmarkCategorize(b *testing.B) {
	stats := testStats(b)
	for _, n := range []int{200, 1000, 4000, 20000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			r := testRelation(n)
			c := NewCategorizer(stats, Options{M: 20, X: 0.1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Categorize(r, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCategorizeSharded sweeps the shard-parallel fan-out on the large
// dataset. shards=1 is the sequential no-regression baseline against
// BENCH_categorize.json's BenchmarkCategorize/rows=20000; the 2/4/8 points
// record the scaling curve BENCH_shard.json captures (`make shardbench`).
func BenchmarkCategorizeSharded(b *testing.B) {
	stats := testStats(b)
	r := testRelation(20000)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := NewCategorizer(stats, Options{M: 20, X: 0.1, Shards: shards})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Categorize(r, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTreeCostAll measures one evaluation of Eq. 1 over a real tree.
func BenchmarkTreeCostAll(b *testing.B) {
	r := testRelation(4000)
	c := NewCategorizer(testStats(b), Options{M: 20, X: 0.1})
	tree, err := c.Categorize(r, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TreeCostAll(tree)
	}
}

// BenchmarkValidate measures the invariant checker.
func BenchmarkValidate(b *testing.B) {
	r := testRelation(4000)
	c := NewCategorizer(testStats(b), Options{M: 20, X: 0.1})
	tree, err := c.Categorize(r, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tree.Validate(); err != nil {
			b.Fatal(err)
		}
	}
}
