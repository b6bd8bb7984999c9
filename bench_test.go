package repro_test

// bench_test.go regenerates every table and figure of the paper's evaluation
// (§6) as Go benchmarks. Each benchmark prints the rows/series the paper
// reports (via b.Logf) and exposes the headline quantity as a custom metric,
// so `go test -bench=. -benchmem` reproduces the study end to end.
// cmd/benchrunner prints the same data as formatted tables at larger scale.

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/category"
	"repro/internal/datagen"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/session"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Shared, lazily built experiment artifacts. The environment and the two
// studies are deterministic, so all benchmarks can reuse one instance.
var (
	envOnce  sync.Once
	envErr   error
	benchEnv *experiments.Env

	synOnce sync.Once
	synErr  error
	synRes  *experiments.SyntheticResult

	studyOnce sync.Once
	studyErr  error
	studyRes  *experiments.StudyResult
)

func mustEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() { benchEnv, envErr = experiments.DefaultEnv() })
	if envErr != nil {
		b.Fatalf("environment: %v", envErr)
	}
	return benchEnv
}

func cachedSynthetic(b *testing.B) *experiments.SyntheticResult {
	b.Helper()
	env := mustEnv(b)
	synOnce.Do(func() { synRes, synErr = experiments.SyntheticStudy(env) })
	if synErr != nil {
		b.Fatalf("synthetic study: %v", synErr)
	}
	return synRes
}

func cachedStudy(b *testing.B) *experiments.StudyResult {
	b.Helper()
	env := mustEnv(b)
	studyOnce.Do(func() { studyRes, studyErr = experiments.RealLifeStudy(env) })
	if studyErr != nil {
		b.Fatalf("real-life study: %v", studyErr)
	}
	return studyRes
}

// BenchmarkFig7EstimatedVsActual regenerates Figure 7: the estimated-vs-
// actual cost scatter over all synthetic explorations with its zero-
// intercept trend line (the paper reports y = 1.1002x).
func BenchmarkFig7EstimatedVsActual(b *testing.B) {
	res := cachedSynthetic(b)
	est, act := res.EstActPairs()
	var slope, r float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slope, _ = stats.FitThroughOrigin(est, act)
		r, _ = stats.Correlate(est, act)
	}
	b.ReportMetric(slope, "slope")
	b.ReportMetric(r, "pearson-r")
	b.Logf("Figure 7: %d synthetic explorations, trend y = %.4fx, r = %.3f", len(est), slope, r)
}

// BenchmarkTable1SubsetCorrelation regenerates Table 1: Pearson correlation
// between estimated and actual cost per cross-validation subset and overall.
func BenchmarkTable1SubsetCorrelation(b *testing.B) {
	res := cachedSynthetic(b)
	var overall float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est, act := res.EstActPairs()
		overall, _ = stats.Correlate(est, act)
	}
	b.ReportMetric(overall, "pearson-r-all")
	for _, s := range res.Subsets {
		b.Logf("Table 1: subset %d  r = %.2f  (n=%d)", s.Index+1, s.PearsonR, s.N)
	}
	b.Logf("Table 1: All  r = %.2f", overall)
}

// BenchmarkFig8FractionExamined regenerates Figure 8: fraction of the result
// set examined per subset for each technique (the paper: cost-based is a
// factor 3-8 below the others).
func BenchmarkFig8FractionExamined(b *testing.B) {
	res := cachedSynthetic(b)
	var worstRatio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		worstRatio = 0
		for _, s := range res.Subsets {
			ratio := s.FracCost[category.NoCost] / s.FracCost[category.CostBased]
			if worstRatio == 0 || ratio < worstRatio {
				worstRatio = ratio
			}
		}
	}
	b.ReportMetric(worstRatio, "min-nocost/cost-ratio")
	for _, s := range res.Subsets {
		b.Logf("Figure 8: subset %d  cost-based=%.3f  attr-cost=%.3f  no-cost=%.3f",
			s.Index+1, s.FracCost[category.CostBased], s.FracCost[category.AttrCost], s.FracCost[category.NoCost])
	}
}

// BenchmarkTable2UserCorrelation regenerates Table 2: per-subject
// correlation between estimated and actual cost in the real-life study.
func BenchmarkTable2UserCorrelation(b *testing.B) {
	res := cachedStudy(b)
	var avg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var rs []float64
		for _, u := range res.PerUser {
			if u.OK {
				rs = append(rs, u.R)
			}
		}
		avg = stats.Mean(rs)
	}
	b.ReportMetric(avg, "avg-user-r")
	for _, u := range res.PerUser {
		if u.OK {
			b.Logf("Table 2: U%d  r = %.2f  (n=%d)", u.Subject+1, u.R, u.N)
		} else {
			b.Logf("Table 2: U%d  r undefined (n=%d)", u.Subject+1, u.N)
		}
	}
	b.Logf("Table 2: average r = %.2f", avg)
}

// BenchmarkTable3VsNoCategorization regenerates Table 3: cost-based
// normalized cost per task versus the result-set size (the no-categorization
// cost).
func BenchmarkTable3VsNoCategorization(b *testing.B) {
	res := cachedStudy(b)
	var rows []experiments.Table3Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3(res)
	}
	for _, row := range rows {
		b.Logf("Table 3: task %d  cost-based = %.3f  no categorization = %d",
			row.Task, row.CostBasedNormCost, row.NoCategorization)
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].CostBasedNormCost, "task1-norm-cost")
	}
}

// logTaskTechnique prints one Figure 9-12 panel.
func logTaskTechnique(b *testing.B, name string, cells map[experiments.CellKey]float64) {
	for task := 0; task < 4; task++ {
		b.Logf("%s: task %d  cost-based=%.1f  attr-cost=%.1f  no-cost=%.1f", name, task+1,
			cells[experiments.CellKey{Task: task, Technique: category.CostBased}],
			cells[experiments.CellKey{Task: task, Technique: category.AttrCost}],
			cells[experiments.CellKey{Task: task, Technique: category.NoCost}])
	}
}

// BenchmarkFig9AllScenarioCost regenerates Figure 9: items examined until
// all relevant tuples were found, per task × technique.
func BenchmarkFig9AllScenarioCost(b *testing.B) {
	res := cachedStudy(b)
	var avg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, n := 0.0, 0
		for task := 0; task < 4; task++ {
			sum += res.CostAll[experiments.CellKey{Task: task, Technique: category.CostBased}]
			n++
		}
		avg = sum / float64(n)
	}
	b.ReportMetric(avg, "costbased-avg-items")
	logTaskTechnique(b, "Figure 9", res.CostAll)
}

// BenchmarkFig10RelevantFound regenerates Figure 10: relevant tuples found
// per task × technique (the paper: 3-5× more with cost-based than no-cost).
func BenchmarkFig10RelevantFound(b *testing.B) {
	res := cachedStudy(b)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb, nc := 0.0, 0.0
		for task := 0; task < 4; task++ {
			cb += res.Relevant[experiments.CellKey{Task: task, Technique: category.CostBased}]
			nc += res.Relevant[experiments.CellKey{Task: task, Technique: category.NoCost}]
		}
		if nc > 0 {
			ratio = cb / nc
		}
	}
	b.ReportMetric(ratio, "cost/nocost-found-ratio")
	logTaskTechnique(b, "Figure 10", res.Relevant)
}

// BenchmarkFig11NormalizedCost regenerates Figure 11: items examined per
// relevant tuple found, per task × technique.
func BenchmarkFig11NormalizedCost(b *testing.B) {
	res := cachedStudy(b)
	var avg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for task := 0; task < 4; task++ {
			sum += res.Normalized[experiments.CellKey{Task: task, Technique: category.CostBased}]
		}
		avg = sum / 4
	}
	b.ReportMetric(avg, "costbased-items-per-relevant")
	logTaskTechnique(b, "Figure 11", res.Normalized)
}

// BenchmarkFig12OneScenarioCost regenerates Figure 12: items examined until
// the first relevant tuple, per task × technique.
func BenchmarkFig12OneScenarioCost(b *testing.B) {
	res := cachedStudy(b)
	var avg float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0.0
		for task := 0; task < 4; task++ {
			sum += res.CostOne[experiments.CellKey{Task: task, Technique: category.CostBased}]
		}
		avg = sum / 4
	}
	b.ReportMetric(avg, "costbased-items-to-first")
	logTaskTechnique(b, "Figure 12", res.CostOne)
}

// BenchmarkTable4SurveyVote regenerates Table 4: which technique each
// subject called best (the paper: 8 of 9 respondents chose cost-based).
func BenchmarkTable4SurveyVote(b *testing.B) {
	res := cachedStudy(b)
	var cb int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb = res.Votes[category.CostBased]
	}
	b.ReportMetric(float64(cb), "costbased-votes")
	for _, tech := range experiments.Techniques() {
		b.Logf("Table 4: %-10s %d votes", tech, res.Votes[tech])
	}
	b.Logf("Table 4: did not respond: %d", res.NoResponse)
}

// BenchmarkFig13ExecutionTime regenerates Figure 13: average categorization
// wall-clock per query for M ∈ {10, 20, 50, 100}, as true sub-benchmarks
// over a representative broadened query.
func BenchmarkFig13ExecutionTime(b *testing.B) {
	env := mustEnv(b)
	// Representative user query: a full-region broadening.
	var (
		qw   *sqlparse.Query
		rows []int
	)
	for _, w := range env.W.Queries {
		if q, ok := datagen.Broaden(w); ok {
			r := env.R.Select(q.Predicate())
			if len(r) > 0 {
				qw, rows = q, r
				break
			}
		}
	}
	if qw == nil {
		b.Fatal("no broadenable query")
	}
	for _, m := range []int{10, 20, 50, 100} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			cat := category.NewCategorizer(env.FullStats,
				category.Options{M: m, K: env.Cfg.K, X: env.Cfg.X})
			var tree *category.Tree
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				tree, err = cat.CategorizeRows(env.R, qw, rows)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tree.NodeCount()), "nodes")
			b.ReportMetric(float64(len(rows)), "result-tuples")
		})
	}
}

// BenchmarkAblationOrdering compares the ONE-scenario cost of the paper's
// P-ordering heuristic against the Appendix-A optimal order and a reversed
// order.
func BenchmarkAblationOrdering(b *testing.B) {
	env := mustEnv(b)
	var res *experiments.OrderingAblation
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationOrdering(env, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Heuristic, "heuristic-costone")
	b.ReportMetric(res.Optimal, "optimal-costone")
	b.Logf("Ablation (ordering): heuristic=%.1f optimal=%.1f reversed=%.1f — %s",
		res.Heuristic, res.Optimal, res.Reversed, res.OrderingGapSummary())
}

// BenchmarkAblationSplitGoodness compares goodness-driven splitpoints with
// equi-width buckets under the same attribute sequence.
func BenchmarkAblationSplitGoodness(b *testing.B) {
	env := mustEnv(b)
	var res *experiments.SplitAblation
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationSplitpoints(env, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.EquiWidth/res.GoodnessCost, "equiwidth/goodness")
	b.ReportMetric(res.EquiDepth/res.GoodnessCost, "equidepth/goodness")
	b.Logf("Ablation (splitpoints): goodness=%.1f equi-width=%.1f (×%.2f) equi-depth=%.1f (×%.2f)",
		res.GoodnessCost, res.EquiWidth, res.EquiWidth/res.GoodnessCost,
		res.EquiDepth, res.EquiDepth/res.GoodnessCost)
}

// BenchmarkAblationAttrElimination sweeps the elimination threshold x.
func BenchmarkAblationAttrElimination(b *testing.B) {
	env := mustEnv(b)
	var points []experiments.XPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.AblationX(env, []float64{0.05, 0.2, 0.4, 0.6, 0.8}, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.Logf("Ablation (x): x=%.2f candidates=%d avg-cost=%.1f avg-build=%.1fms",
			p.X, p.Candidates, p.AvgCost, 1000*p.AvgBuild)
	}
}

// BenchmarkAblationK sweeps the label-examination cost K.
func BenchmarkAblationK(b *testing.B) {
	env := mustEnv(b)
	var points []experiments.KPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.AblationK(env, []float64{0.5, 1, 2, 5}, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.Logf("Ablation (K): K=%.1f level1=%s avg-cost=%.1f avg-depth=%.1f",
			p.K, p.Level1Attr, p.AvgCost, p.AvgDepth)
	}
}

// BenchmarkAblationCorrelation compares the paper's independence assumption
// against the §5.2 path-conditional probability model on held-out
// explorations.
func BenchmarkAblationCorrelation(b *testing.B) {
	env := mustEnv(b)
	var res *experiments.CorrelationAblation
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationCorrelation(env, 40)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.IndepR, "indep-r")
	b.ReportMetric(res.CondR, "cond-r")
	b.Logf("Ablation (correlation): independent r=%.3f frac=%.3f | conditional r=%.3f frac=%.3f (n=%d)",
		res.IndepR, res.IndepFrac, res.CondR, res.CondFrac, res.N)
}

// BenchmarkAblationRanking measures the §2 complementarity 2×2: flat scan vs
// category tree, each with and without workload-popularity ranking
// (ONE-scenario cost).
func BenchmarkAblationRanking(b *testing.B) {
	env := mustEnv(b)
	var res *experiments.RankingAblation
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationRanking(env, 60)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Tree, "tree-one-cost")
	b.ReportMetric(res.TreeRanked, "tree+rank-one-cost")
	b.Logf("Ablation (ranking): flat=%.1f flat+rank=%.1f tree=%.1f tree+rank=%.1f (n=%d)",
		res.Flat, res.FlatRanked, res.Tree, res.TreeRanked, res.N)
}

// BenchmarkAblationGreedyVsOptimal measures the Figure 6 greedy against the
// §5 bounded enumerative optimum on down-sampled instances.
func BenchmarkAblationGreedyVsOptimal(b *testing.B) {
	env := mustEnv(b)
	var res *experiments.GreedyOptimality
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.AblationGreedyOptimal(env, 4, 120)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AvgRatio, "greedy/optimal-avg")
	b.ReportMetric(res.WorstRatio, "greedy/optimal-worst")
	b.Logf("Ablation (greedy vs optimal): avg %.3f worst %.3f over %d instances (%d trees)",
		res.AvgRatio, res.WorstRatio, res.Instances, res.TreesTried)
}

// --- micro-benchmarks of the core operations -------------------------------

// BenchmarkWorkloadPreprocess measures the offline count-table build.
func BenchmarkWorkloadPreprocess(b *testing.B) {
	env := mustEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.Preprocess(env.W, workload.Config{
			Table:     datagen.TableName,
			Intervals: datagen.Intervals(),
		})
	}
}

// BenchmarkSelect measures predicate evaluation over the base relation.
func BenchmarkSelect(b *testing.B) {
	env := mustEnv(b)
	q := sqlparse.MustParse("SELECT * FROM ListProperty WHERE neighborhood IN ('Seattle, WA','Bellevue, WA') AND price BETWEEN 200000 AND 300000")
	pred := q.Predicate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.R.Select(pred)
	}
}

// BenchmarkExploreAll measures one deterministic ALL-scenario exploration.
func BenchmarkExploreAll(b *testing.B) {
	env := mustEnv(b)
	var w *sqlparse.Query
	var qw *sqlparse.Query
	for _, cand := range env.W.Queries {
		if q, ok := datagen.Broaden(cand); ok {
			w, qw = cand, q
			break
		}
	}
	rows := env.R.Select(qw.Predicate())
	cat := category.NewCategorizer(env.FullStats, category.Options{M: env.Cfg.M, K: env.Cfg.K, X: env.Cfg.X})
	tree, err := cat.CategorizeRows(env.R, qw, rows)
	if err != nil {
		b.Fatal(err)
	}
	ex := &explore.Explorer{K: 1}
	in := &explore.Intent{Query: w}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.All(tree, in)
	}
}

// BenchmarkCostEstimation measures evaluating Eq. 1 and Eq. 2 on a real tree.
func BenchmarkCostEstimation(b *testing.B) {
	env := mustEnv(b)
	var qw *sqlparse.Query
	for _, cand := range env.W.Queries {
		if q, ok := datagen.Broaden(cand); ok {
			qw = q
			break
		}
	}
	rows := env.R.Select(qw.Predicate())
	cat := category.NewCategorizer(env.FullStats, category.Options{M: env.Cfg.M, K: env.Cfg.K, X: env.Cfg.X})
	tree, err := cat.CategorizeRows(env.R, qw, rows)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		category.TreeCostAll(tree)
		category.TreeCostOne(tree, 0.5)
	}
}

// BenchmarkCategorizeScaling measures the cost-based algorithm as the result
// set grows, confirming the near-linear behaviour behind Figure 13.
func BenchmarkCategorizeScaling(b *testing.B) {
	env := mustEnv(b)
	var qw *sqlparse.Query
	var rows []int
	for _, cand := range env.W.Queries {
		if q, ok := datagen.Broaden(cand); ok {
			r := env.R.Select(q.Predicate())
			if len(r) >= 4000 {
				qw, rows = q, r
				break
			}
		}
	}
	if qw == nil {
		b.Skip("no large-enough region result at this scale")
	}
	cat := category.NewCategorizer(env.FullStats, category.Options{M: env.Cfg.M, K: env.Cfg.K, X: env.Cfg.X})
	for _, n := range []int{500, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			sub := rows[:n]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cat.CategorizeRows(env.R, qw, sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionOps measures the treeview session layer's per-operation
// overhead.
func BenchmarkSessionOps(b *testing.B) {
	env := mustEnv(b)
	var qw *sqlparse.Query
	var rows []int
	for _, cand := range env.W.Queries {
		if q, ok := datagen.Broaden(cand); ok {
			qw, rows = q, env.R.Select(q.Predicate())
			break
		}
	}
	cat := category.NewCategorizer(env.FullStats, category.Options{M: env.Cfg.M, K: env.Cfg.K, X: env.Cfg.X})
	tree, err := cat.CategorizeRows(env.R, qw, rows)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := session.New(tree, 1)
		if _, err := s.Expand(nil); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Expand([]int{0}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.ShowTuples([]int{0, 0}); err != nil {
			b.Fatal(err)
		}
		s.Summary()
	}
}
