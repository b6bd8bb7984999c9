// Command catserve runs the categorization HTTP service over a generated
// (or CSV-loaded) dataset.
//
// Usage:
//
//	catserve [-addr :8080] [-rows N] [-queries N] [-seed N] [-csv file] [-workload file] [-data-dir DIR] [-fsync POLICY] [-correlations] [-learn] [-cache-entries N] [-cache-mb N] [-max-concurrent N] [-max-queue N] [-deadline D] [-soft-budget D] [-degrade] [-drain D] [-warm-topk N] [-warm-budget D]
//
// Then:
//
//	curl localhost:8080/healthz
//	curl -X POST localhost:8080/v1/query -d '{"sql":"SELECT * FROM ListProperty WHERE price BETWEEN 200000 AND 300000","maxDepth":2}'
//	curl -X POST localhost:8080/v1/refine -d '{"sql":"…","path":[0,1]}'
//
// With -data-dir the relation lives in a crash-consistent durable segment
// store (DESIGN.md §15): a directory already holding a store is reopened with
// full recovery (WAL replay, torn-tail repair, corrupt-segment quarantine —
// the server then runs degraded rather than refusing to start), while an
// empty one is created and seeded with the generated or CSV dataset through
// the WAL'd ingest path. -fsync picks the append sync policy.
//
// SIGINT/SIGTERM drains gracefully: new categorization requests are shed
// with 503 while in-flight ones get up to -drain to finish.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/relation"
	"repro/internal/server"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		rows    = flag.Int("rows", 20000, "synthetic dataset size (ignored with -csv)")
		queries = flag.Int("queries", 10000, "synthetic workload size (ignored with -workload)")
		seed    = flag.Int64("seed", 1, "generation seed")
		csvPath = flag.String("csv", "", "load the relation from this CSV instead of generating")
		wlPath  = flag.String("workload", "", "load the workload from this SQL log instead of generating")
		dataDir = flag.String("data-dir", "", "durable segment store directory: reopened (with crash recovery) when it holds a store, else created and seeded with the dataset")
		fsyncP  = flag.String("fsync", "batch", "durable store append sync policy: always, batch, or none (with -data-dir)")
		corr    = flag.Bool("correlations", false, "enable the path-conditional probability model")
		learn   = flag.Bool("learn", false, "fold every served query into the workload statistics")

		cacheEntries = flag.Int("cache-entries", 256, "tree cache entry bound (0 with -cache-mb 0 disables caching)")
		cacheMB      = flag.Int64("cache-mb", 64, "tree cache byte bound in MiB")

		maxConcurrent = flag.Int("max-concurrent", 0, "max concurrent categorization computations (0 disables admission control)")
		maxQueue      = flag.Int("max-queue", 0, "max requests queued for a computation slot (0 = 2x max-concurrent, negative = no queue)")
		deadline      = flag.Duration("deadline", 0, "server-imposed deadline per categorization request (0 = none; exceeded = 504)")
		softBudget    = flag.Duration("soft-budget", 0, "budget before -degrade steps down the technique (0 = half the deadline)")
		degrade       = flag.Bool("degrade", false, "serve cheaper approximations instead of 504 when the soft budget is blown")
		drain         = flag.Duration("drain", 10*time.Second, "graceful-shutdown drain window for in-flight requests")

		warmTopK   = flag.Int("warm-topk", 0, "pre-warm this many top signatures after each learn (requires -learn; 0 = off)")
		warmBudget = flag.Duration("warm-budget", 0, "wall budget per pre-warming build (0 = 2s default)")
	)
	flag.Parse()

	// loadRel materializes the configured dataset in memory (CSV or demo).
	loadRel := func() *repro.Relation {
		if *csvPath != "" {
			f, err := os.Open(*csvPath)
			if err != nil {
				log.Fatal(err)
			}
			rel, err := relation.ReadCSV("ListProperty", f, nil)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			return rel
		}
		return repro.DemoDataset(*rows, *seed)
	}

	var (
		rel *repro.Relation
		dur *repro.DurableStore
	)
	if *dataDir == "" {
		rel = loadRel()
	} else {
		pol, err := repro.ParseSyncPolicy(*fsyncP)
		if err != nil {
			log.Fatal(err)
		}
		opts := repro.DurableOptions{Sync: pol}
		switch dur, err = repro.OpenDurable(*dataDir, opts); {
		case err == nil:
			// Reopened: the store's surviving rows ARE the dataset; -rows and
			// -csv describe only how a fresh store would be seeded.
			rel, err = dur.Relation("ListProperty")
			if err != nil {
				log.Fatal(err)
			}
			ds := dur.Stats()
			fmt.Printf("catserve: recovered %s: %d segments, %d rows (torn tail: %v)\n",
				*dataDir, ds.Segments, ds.SealedRows+ds.TailRows, ds.RecoveredTorn)
			if ds.Degraded {
				fmt.Printf("catserve: DEGRADED storage — %d rows quarantined across %d segments\n",
					ds.QuarantinedRows, len(ds.Quarantined))
			}
		case repro.IsDurableNotExist(err):
			// Fresh directory: seed it through the WAL'd ingest path so the
			// store is crash-consistent from the first row.
			rel = loadRel()
			dur, err = repro.CreateDurable(*dataDir, rel.Schema(), opts)
			if err != nil {
				log.Fatal(err)
			}
			for i := 0; i < rel.Len(); i++ {
				if err := dur.Append(rel.Row(i)); err != nil {
					log.Fatal(err)
				}
			}
			if err := dur.Sync(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("catserve: seeded %s with %d rows (fsync=%s)\n", *dataDir, rel.Len(), pol)
		default:
			log.Fatal(err)
		}
	}

	cfg := repro.Config{
		Durable:          dur,
		Intervals:        repro.DemoIntervals(),
		Correlations:     *corr,
		TreeCacheEntries: *cacheEntries,
		TreeCacheBytes:   *cacheMB << 20,
	}
	if *wlPath != "" {
		f, err := os.Open(*wlPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		cfg.WorkloadReader = f
	} else {
		cfg.WorkloadSQL = repro.DemoWorkloadSQL(*queries, *seed+1)
	}
	sys, err := repro.NewSystem(rel, cfg)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := server.New(server.Config{
		System:        sys,
		MaxDepth:      6,
		MaxChildren:   200,
		Learn:         *learn,
		MaxConcurrent: *maxConcurrent,
		MaxQueue:      *maxQueue,
		Deadline:      *deadline,
		SoftBudget:    *softBudget,
		Degrade:       *degrade,
		WarmTopK:      *warmTopK,
		WarmBudget:    *warmBudget,
	})
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	fmt.Printf("catserve: %d rows, %d workload queries, listening on %s\n",
		rel.Len(), sys.Stats().N(), *addr)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("catserve: draining…")
	srv.BeginShutdown()
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("catserve: drain incomplete: %v", err)
		os.Exit(1)
	}
	if dur != nil {
		// Graceful close fsyncs the tail regardless of -fsync policy.
		if err := dur.Close(); err != nil {
			log.Printf("catserve: closing durable store: %v", err)
			os.Exit(1)
		}
	}
	fmt.Println("catserve: bye")
}
