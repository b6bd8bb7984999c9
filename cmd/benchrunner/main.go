// Command benchrunner reproduces every table and figure of the paper's
// evaluation (§6) at full scale and prints them as formatted tables — the
// report that EXPERIMENTS.md records.
//
// Usage:
//
//	benchrunner [-rows N] [-queries N] [-subsets N] [-persubset N] [-seed N] [-out file] [-json file]
//	benchrunner -check experiments_report.json
//
// -check regenerates the structured results and compares every field with a
// committed JSON report, apart from Figure 13's wall-clock timings. It writes
// nothing, and on a difference names the first figure or table that differs
// and exits 1. `make report` rewrites the committed report.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"time"

	"repro/internal/category"
	"repro/internal/experiments"
	"repro/internal/render"
)

func main() {
	var (
		rows      = flag.Int("rows", 20000, "dataset size")
		queries   = flag.Int("queries", 10000, "workload size")
		subsets   = flag.Int("subsets", 8, "cross-validation subsets (§6.2)")
		perSubset = flag.Int("persubset", 100, "held-out queries per subset")
		seed      = flag.Int64("seed", 1, "generation seed")
		outPath   = flag.String("out", "", "also write the report to this file")
		jsonPath  = flag.String("json", "", "also write the structured results as JSON to this file")
		checkPath = flag.String("check", "", "compare the structured results with this JSON report instead of printing or writing anything")
	)
	flag.Parse()

	var out io.Writer = os.Stdout
	switch {
	case *checkPath != "":
		out = io.Discard
	case *outPath != "":
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	start := time.Now()
	fmt.Fprintf(out, "== Automatic Categorization of Query Results — evaluation reproduction ==\n")
	fmt.Fprintf(out, "dataset %d rows, workload %d queries, %d×%d held-out explorations, seed %d\n\n",
		*rows, *queries, *subsets, *perSubset, *seed)

	env, err := experiments.NewEnv(experiments.Config{
		Rows: *rows, Queries: *queries, Subsets: *subsets, PerSubset: *perSubset, Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}

	syn, err := experiments.SyntheticStudy(env)
	if err != nil {
		fatal(err)
	}
	printSynthetic(out, syn)

	study, err := experiments.RealLifeStudy(env)
	if err != nil {
		fatal(err)
	}
	printStudy(out, study)

	timing, err := experiments.ExecutionTime(env, []int{10, 20, 50, 100}, 100)
	if err != nil {
		fatal(err)
	}
	printTiming(out, timing)

	if *checkPath != "" {
		if err := checkReport(*checkPath, reportPayload(syn, study, timing)); err != nil {
			fatal(err)
		}
		fmt.Printf("benchrunner: results match %s (Figure 13 timings not compared) in %s\n",
			*checkPath, time.Since(start).Round(time.Millisecond))
		return
	}

	if err := printAblations(out, env); err != nil {
		fatal(err)
	}

	if *jsonPath != "" {
		if err := writeJSONResults(*jsonPath, reportPayload(syn, study, timing)); err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "\nstructured results written to %s\n", *jsonPath)
	}

	fmt.Fprintf(out, "\ntotal runtime: %s\n", time.Since(start).Round(time.Millisecond))
}

// reportPayload is the machine-readable form of the study outputs, so
// downstream analysis (plots, regression tracking) need not re-parse the
// text report.
func reportPayload(syn *experiments.SyntheticResult, study *experiments.StudyResult, timing *experiments.TimingResult) map[string]any {
	type cell struct {
		Task      int     `json:"task"`
		Technique string  `json:"technique"`
		Value     float64 `json:"value"`
	}
	flatten := func(m map[experiments.CellKey]float64) []cell {
		var out []cell
		for task := 0; task < 4; task++ {
			for _, tech := range experiments.Techniques() {
				out = append(out, cell{Task: task + 1, Technique: tech.String(),
					Value: m[experiments.CellKey{Task: task, Technique: tech}]})
			}
		}
		return out
	}
	return map[string]any{
		"figure7":  map[string]any{"slope": syn.Slope, "pearsonAll": syn.OverallR, "explorations": len(syn.Explorations)},
		"table1":   syn.Subsets,
		"table2":   study.PerUser,
		"figure9":  flatten(study.CostAll),
		"figure10": flatten(study.Relevant),
		"figure11": flatten(study.Normalized),
		"figure12": flatten(study.CostOne),
		"table3":   experiments.Table3(study),
		"table4":   map[string]any{"votes": voteNames(study), "noResponse": study.NoResponse},
		"figure13": timing.Points,
	}
}

func writeJSONResults(path string, payload map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(payload)
}

// reportOrder lists the report's figures and tables in the paper's order, the
// order checkReport compares them in.
var reportOrder = []string{"figure7", "table1", "table2", "figure9", "figure10", "figure11", "figure12", "table3", "table4", "figure13"}

// checkReport compares payload with the JSON report at path, figure by
// figure in the paper's order, and returns an error naming the first one
// that differs.
func checkReport(path string, payload map[string]any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	want, err := decodeReport(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fresh, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	got, err := decodeReport(fresh)
	if err != nil {
		return err
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			return fmt.Errorf("%s has %q, which the report no longer produces", path, key)
		}
	}
	for _, key := range reportOrder {
		if !reflect.DeepEqual(got[key], want[key]) {
			return fmt.Errorf("%s differs from %s (make report rewrites it):\n got  %v\n want %v", key, path, got[key], want[key])
		}
	}
	return nil
}

// decodeReport decodes a JSON report keeping every number as its exact
// encoding, and drops Figure 13's AvgSeconds: timings depend on the host.
func decodeReport(raw []byte) (map[string]any, error) {
	var r map[string]any
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&r); err != nil {
		return nil, err
	}
	points, _ := r["figure13"].([]any)
	for _, p := range points {
		if m, ok := p.(map[string]any); ok {
			delete(m, "AvgSeconds")
		}
	}
	return r, nil
}

func voteNames(study *experiments.StudyResult) map[string]int {
	out := map[string]int{}
	for tech, n := range study.Votes {
		out[tech.String()] = n
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchrunner:", err)
	os.Exit(1)
}

func printSynthetic(out io.Writer, syn *experiments.SyntheticResult) {
	fmt.Fprintf(out, "-- Figure 7: estimated vs actual cost (%d synthetic explorations) --\n", len(syn.Explorations))
	fmt.Fprintf(out, "trend line: y = %.4fx   (paper: y = 1.1002x)\n\n", syn.Slope)

	fmt.Fprintln(out, "-- Table 1: Pearson correlation per subset --")
	rows := make([][]string, 0, len(syn.Subsets)+1)
	for _, s := range syn.Subsets {
		rows = append(rows, []string{fmt.Sprintf("%d", s.Index+1), fmt.Sprintf("%.2f", s.PearsonR)})
	}
	rows = append(rows, []string{"All", fmt.Sprintf("%.2f", syn.OverallR)})
	must(render.Table(out, []string{"Subset", "Correlation"}, rows))
	fmt.Fprintln(out, "(paper: subsets 0.16-0.98, All 0.90)")

	fmt.Fprintln(out, "\n-- Figure 8: fraction of result set examined per subset --")
	rows = rows[:0]
	for _, s := range syn.Subsets {
		rows = append(rows, []string{
			fmt.Sprintf("%d", s.Index+1),
			fmt.Sprintf("%.4f", s.FracCost[category.CostBased]),
			fmt.Sprintf("%.4f", s.FracCost[category.AttrCost]),
			fmt.Sprintf("%.4f", s.FracCost[category.NoCost]),
		})
	}
	must(render.Table(out, []string{"Subset", "Cost-based", "Attr-cost", "No cost"}, rows))
	fmt.Fprintln(out, "(paper: cost-based a factor 3-8 below the others)")
	fmt.Fprintln(out)
}

func printStudy(out io.Writer, study *experiments.StudyResult) {
	fmt.Fprintln(out, "-- Table 2: per-subject correlation, estimated vs actual cost --")
	rows := make([][]string, 0, len(study.PerUser)+1)
	for _, u := range study.PerUser {
		val := "n/a"
		if u.OK {
			val = fmt.Sprintf("%.2f", u.R)
		}
		rows = append(rows, []string{fmt.Sprintf("U%d", u.Subject+1), val, fmt.Sprintf("%d", u.N)})
	}
	rows = append(rows, []string{"average", fmt.Sprintf("%.2f", study.AvgUserR), ""})
	must(render.Table(out, []string{"User", "Correlation", "Explorations"}, rows))
	fmt.Fprintln(out, "(paper: average 0.67; 9 of 11 between 0.6 and 1.0)")

	cell := func(m map[experiments.CellKey]float64, task int, tech category.Technique) string {
		return fmt.Sprintf("%.1f", m[experiments.CellKey{Task: task, Technique: tech}])
	}
	panel := func(title, note string, m map[experiments.CellKey]float64) {
		fmt.Fprintf(out, "\n-- %s --\n", title)
		rows := make([][]string, 0, 4)
		for task := 0; task < 4; task++ {
			rows = append(rows, []string{
				fmt.Sprintf("Task %d", task+1),
				cell(m, task, category.CostBased),
				cell(m, task, category.AttrCost),
				cell(m, task, category.NoCost),
			})
		}
		must(render.Table(out, []string{"", "Cost-based", "Attr-cost", "No cost"}, rows))
		if note != "" {
			fmt.Fprintln(out, note)
		}
	}
	panel("Figure 9: items examined until ALL relevant tuples found", "", study.CostAll)
	panel("Figure 10: relevant tuples found", "(paper: 3-5x more with cost-based than no-cost)", study.Relevant)
	panel("Figure 11: normalized cost (items per relevant tuple)",
		"(paper: 5-10 items per relevant tuple with cost-based)", study.Normalized)
	panel("Figure 12: items examined until FIRST relevant tuple", "", study.CostOne)

	fmt.Fprintln(out, "\n-- Table 3: cost-based vs no categorization --")
	rows = rows[:0]
	for _, row := range experiments.Table3(study) {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Task),
			fmt.Sprintf("%.3f", row.CostBasedNormCost),
			fmt.Sprintf("%d", row.NoCategorization),
		})
	}
	must(render.Table(out, []string{"Task", "Cost-based (norm.)", "No categorization"}, rows))

	fmt.Fprintln(out, "\n-- Table 4: post-study survey --")
	rows = rows[:0]
	for _, tech := range experiments.Techniques() {
		rows = append(rows, []string{tech.String(), fmt.Sprintf("%d", study.Votes[tech])})
	}
	rows = append(rows, []string{"Did not respond", fmt.Sprintf("%d", study.NoResponse)})
	must(render.Table(out, []string{"Technique", "#subjects that called it best"}, rows))
	fmt.Fprintln(out, "(paper: 8 cost-based, 1 attr-cost, 0 no-cost, 2 no response)")
	fmt.Fprintln(out)
}

func printTiming(out io.Writer, timing *experiments.TimingResult) {
	fmt.Fprintf(out, "-- Figure 13: categorization time vs M (over %d queries, avg result %.0f tuples) --\n",
		timing.QueriesTimed, timing.AvgResultSize)
	rows := make([][]string, 0, len(timing.Points))
	for _, p := range timing.Points {
		rows = append(rows, []string{
			fmt.Sprintf("M=%d", p.M),
			fmt.Sprintf("%.4f s", p.AvgSeconds),
			fmt.Sprintf("%.0f", p.AvgNodes),
		})
	}
	must(render.Table(out, []string{"", "Avg execution time", "Avg tree nodes"}, rows))
	fmt.Fprintln(out, "(paper: ≈1s at M=10-100 on 2004 hardware, dominated by count-table access)")
	fmt.Fprintln(out)
}

func printAblations(out io.Writer, env *experiments.Env) error {
	fmt.Fprintln(out, "-- Ablations --")
	ord, err := experiments.AblationOrdering(env, 10)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ordering (CostOne): heuristic=%.1f optimal=%.1f reversed=%.1f — %s\n",
		ord.Heuristic, ord.Optimal, ord.Reversed, ord.OrderingGapSummary())

	sp, err := experiments.AblationSplitpoints(env, 10)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "splitpoints (CostAll): goodness=%.1f equi-width=%.1f (×%.2f) equi-depth=%.1f (×%.2f)\n",
		sp.GoodnessCost, sp.EquiWidth, sp.EquiWidth/sp.GoodnessCost, sp.EquiDepth, sp.EquiDepth/sp.GoodnessCost)

	xs, err := experiments.AblationX(env, []float64{0.05, 0.2, 0.4, 0.6, 0.8}, 8)
	if err != nil {
		return err
	}
	for _, p := range xs {
		fmt.Fprintf(out, "x=%.2f: %d candidate attrs, avg cost %.1f, avg build %.1f ms\n",
			p.X, p.Candidates, p.AvgCost, 1000*p.AvgBuild)
	}

	ks, err := experiments.AblationK(env, []float64{0.5, 1, 2, 5}, 8)
	if err != nil {
		return err
	}
	for _, p := range ks {
		fmt.Fprintf(out, "K=%.1f: level-1 attr %s, avg cost %.1f, avg depth %.1f\n",
			p.K, p.Level1Attr, p.AvgCost, p.AvgDepth)
	}

	corr, err := experiments.AblationCorrelation(env, 100)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "correlation model (§5.2 refinement, %d explorations): independent r=%.3f frac=%.4f one=%.1f | conditional r=%.3f frac=%.4f one=%.1f\n",
		corr.N, corr.IndepR, corr.IndepFrac, corr.IndepOne, corr.CondR, corr.CondFrac, corr.CondOne)

	rank, err := experiments.AblationRanking(env, 100)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ranking × categorization (§2 complementarity, ONE-scenario cost, %d explorations): flat=%.1f flat+rank=%.1f tree=%.1f tree+rank=%.1f\n",
		rank.N, rank.Flat, rank.FlatRanked, rank.Tree, rank.TreeRanked)

	opt, err := experiments.AblationGreedyOptimal(env, 5, 150)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "greedy vs §5 enumerative optimum (%d down-sampled instances, %d trees): avg ratio %.3f, worst %.3f\n",
		opt.Instances, opt.TreesTried, opt.AvgRatio, opt.WorstRatio)
	return nil
}

func must(err error) {
	if err != nil {
		fatal(err)
	}
}
