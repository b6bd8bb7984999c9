// Package experiments reproduces the paper's evaluation (§6): the
// large-scale simulated user study over held-out workload queries
// (Figure 7, Table 1, Figure 8), the real-life user study with simulated
// subjects (Tables 2-4, Figures 9-12), the execution-time measurement
// (Figure 13), and ablations of the design choices DESIGN.md calls out.
// Both bench_test.go and cmd/benchrunner drive this package, so the printed
// rows and the benchmarked numbers come from the same code.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/workload"
)

// Config scales an experiment environment. Zero fields take defaults sized
// so the average broadened result set is ≈2000 tuples, matching the paper's
// reported query sizes.
type Config struct {
	// Rows is the synthetic ListProperty size. Default 20000.
	Rows int
	// Queries is the synthetic workload size. Default 10000.
	Queries int
	// Seed drives the dataset; Seed+1 drives the workload; study subjects
	// derive their own streams from it. Default 1.
	Seed int64
	// M is the max-tuples-per-category threshold. Default 20 (the paper's
	// study setting).
	M int
	// K is the label-examination cost. Default 1.
	K float64
	// X is the attribute-elimination threshold. Default 0.4.
	X float64
	// Subsets and PerSubset shape the §6.2 cross-validation: Subsets
	// disjoint groups of PerSubset held-out queries. Defaults 8 and 100.
	Subsets   int
	PerSubset int
	// Subjects is the §6.3 panel size. Default 11.
	Subjects int
}

func (c Config) withDefaults() Config {
	if c.Rows == 0 {
		c.Rows = 20000
	}
	if c.Queries == 0 {
		c.Queries = 10000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.M == 0 {
		c.M = 20
	}
	if c.K == 0 {
		c.K = 1
	}
	if c.X == 0 {
		c.X = 0.4
	}
	if c.Subsets == 0 {
		c.Subsets = 8
	}
	if c.PerSubset == 0 {
		c.PerSubset = 100
	}
	if c.Subjects == 0 {
		c.Subjects = 11
	}
	return c
}

// Env is a fully generated experiment environment: dataset, workload, and
// count tables over the complete workload.
type Env struct {
	Cfg       Config
	R         *relation.Relation
	W         *workload.Workload
	FullStats *workload.Stats
}

// NewEnv generates the environment for cfg.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	r := datagen.Dataset(datagen.DatasetConfig{Rows: cfg.Rows, Seed: cfg.Seed})
	sql := datagen.WorkloadSQL(datagen.WorkloadConfig{Queries: cfg.Queries, Seed: cfg.Seed + 1})
	w, err := workload.ParseStrings(sql)
	if err != nil {
		return nil, fmt.Errorf("experiments: workload generation produced unparseable SQL: %w", err)
	}
	stats := workload.Preprocess(w, workload.Config{
		Table:     datagen.TableName,
		Intervals: datagen.Intervals(),
	})
	return &Env{Cfg: cfg, R: r, W: w, FullStats: stats}, nil
}

var (
	defaultEnvOnce sync.Once
	defaultEnv     *Env
	defaultEnvErr  error
)

// DefaultEnv returns a shared environment at bench scale (smaller subsets so
// `go test -bench=.` stays fast); it is built once per process.
func DefaultEnv() (*Env, error) {
	defaultEnvOnce.Do(func() {
		defaultEnv, defaultEnvErr = NewEnv(Config{PerSubset: 25})
	})
	return defaultEnv, defaultEnvErr
}
