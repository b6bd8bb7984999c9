package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/relation/durable"
)

// check names how a workload's responses are verified against the uncached
// reference.
type check int

const (
	// checkPrimed: every timed body must equal the body its query returned
	// while priming, and each primed body must equal the reference body.
	checkPrimed check = iota
	// checkSample: a seeded sample of timed bodies must equal the reference.
	checkSample
	// checkCount: every response's resultCount must equal Relation.Select.
	checkCount
)

// workload is one traffic mix: the data served, how the server is
// configured, and what every response must carry.
type workload struct {
	name    string
	rows    int  // demo relation size
	logSize int  // mined query-log size
	durable bool // relation reopened from a spilled durable store per setup
	learn   bool // server.Config.Learn, as catserve -learn
	// mix > 0 cycles that many distinct queries after priming the cache with
	// one pass over them; mix == 0 sends a stream of distinct signatures,
	// each once, with no priming.
	mix    int
	stream int // distinct-signature stream length (mix == 0)
	// wantCache is the X-Cache value every timed response must carry; ""
	// leaves it unchecked.
	wantCache string
	check     check
	sample    int // bodies compared against the reference (checkSample)
}

// workloads are the benchmark's traffic mixes at full scale.
var workloads = []workload{
	{name: "hot_hits", rows: 20000, logSize: 10000, mix: 128, wantCache: "hit", check: checkPrimed},
	{name: "cold_durable", rows: 100000, logSize: 10000, durable: true, stream: 16000, wantCache: "miss", check: checkSample, sample: 200},
	{name: "learn_churn", rows: 20000, logSize: 10000, learn: true, mix: 128, check: checkCount},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Each input draws from its own seed, derived from the benchmark seed.
const (
	seedData uint64 = iota + 1
	seedLog
	seedStream
	seedSample
)

// deriveSeed maps (seed, stream) to a positive seed with a splitmix64 step,
// so neighbouring benchmark seeds give unrelated inputs.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) + 1
}

// inputs are one run's generated files and request stream.
type inputs struct {
	dir      string
	csvPath  string // in-memory relation (non-durable workloads)
	storeDir string // pristine spilled store; every setup opens a copy
	logPath  string
	dataCfg  datagen.DatasetConfig
	sqls     []string
	bodies   [][]byte // catload's request body for each sql
}

// generateInputs writes the dataset, the mined log and the request stream
// for w under dir.
func generateInputs(w workload, seed int64, dir string) (*inputs, error) {
	in := &inputs{
		dir:     dir,
		logPath: filepath.Join(dir, "log.sql"),
		dataCfg: datagen.DatasetConfig{Rows: w.rows, Seed: deriveSeed(seed, seedData)},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var rel *repro.Relation // the generated relation, for in-memory workloads
	if w.durable {
		in.storeDir = filepath.Join(dir, "store")
		if err := spillStore(in.storeDir, in.dataCfg); err != nil {
			return nil, fmt.Errorf("spilling store: %w", err)
		}
	} else {
		rel = datagen.Dataset(in.dataCfg)
		in.csvPath = filepath.Join(dir, "data.csv")
		if err := writeFile(in.csvPath, rel.WriteCSV); err != nil {
			return nil, err
		}
	}
	log := repro.DemoWorkloadSQL(w.logSize, deriveSeed(seed, seedLog))
	if err := writeFile(in.logPath, func(f io.Writer) error {
		bw := bufio.NewWriter(f)
		for _, q := range log {
			bw.WriteString(q)
			bw.WriteByte('\n')
		}
		return bw.Flush()
	}); err != nil {
		return nil, err
	}
	var err error
	if w.mix > 0 {
		in.sqls, err = stratifiedMix(w.mix, deriveSeed(seed, seedStream), rel)
	} else {
		in.sqls, err = distinctStream(w.stream, deriveSeed(seed, seedStream))
	}
	if err != nil {
		return nil, err
	}
	for _, sql := range in.sqls {
		in.bodies = append(in.bodies, requestBody(sql))
	}
	return in, nil
}

// requestBody is catload's /v1/query body.
func requestBody(sql string) []byte {
	raw, err := json.Marshal(map[string]any{"sql": sql, "maxDepth": 3})
	if err != nil {
		panic(err) // a string and an int always marshal
	}
	return raw
}

// queryMix is catload's mix: the first n distinct queries the demo workload
// generator emits, so the load follows the mined log's distribution.
func queryMix(n int, seed int64) ([]string, error) {
	seen := make(map[string]bool)
	var mix []string
	for _, sql := range repro.DemoWorkloadSQL(n*20, seed) {
		if !seen[sql] {
			seen[sql] = true
			mix = append(mix, sql)
			if len(mix) == n {
				return mix, nil
			}
		}
	}
	return nil, fmt.Errorf("query mix: only %d distinct queries", len(mix))
}

// mixPool is how many catload-mix candidates each mix query is drawn from.
const mixPool = 64

// stratifiedMix draws n queries from a catload mix of n*mixPool, at evenly
// spaced ranks of result size over rel, in seeded order. A plain mix of a
// few queries lets one broad query set a seed's latencies; stratifying
// gives every seed the same spread of result sizes.
func stratifiedMix(n int, seed int64, rel *repro.Relation) ([]string, error) {
	pool, err := queryMix(n*mixPool, seed)
	if err != nil {
		return nil, err
	}
	size := make(map[string]int, len(pool))
	for _, sql := range pool {
		q, err := repro.ParseQuery(sql)
		if err != nil {
			return nil, err
		}
		size[sql] = len(rel.Select(q.Predicate()))
	}
	sort.Slice(pool, func(i, j int) bool {
		if size[pool[i]] != size[pool[j]] {
			return size[pool[i]] < size[pool[j]]
		}
		return pool[i] < pool[j]
	})
	mix := make([]string, n)
	for k := range mix {
		mix[k] = pool[(2*k+1)*len(pool)/(2*n)]
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix, nil
}

// distinctStream draws n generator queries whose canonical signatures are
// pairwise distinct, so every one is a tree-cache miss.
func distinctStream(n int, seed int64) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	for batch := int64(0); batch < 64 && len(out) < n; batch++ {
		for _, sql := range repro.DemoWorkloadSQL(4*n, seed+batch) {
			q, err := repro.ParseQuery(sql)
			if err != nil {
				return nil, err
			}
			if sig := q.Signature(); !seen[sig] {
				seen[sig] = true
				out = append(out, sql)
				if len(out) == n {
					return out, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("distinct stream: only %d distinct signatures", len(out))
}

// spillStore streams the dataset into a fresh durable store with SyncNone,
// as cmd/datagen -spill does; Close syncs the finished store.
func spillStore(dir string, cfg datagen.DatasetConfig) error {
	st, err := durable.Create(dir, datagen.Schema(cfg), durable.Options{Sync: durable.SyncNone})
	if err != nil {
		return err
	}
	if err := datagen.Stream(cfg, func(_ int, t relation.Tuple) error { return st.Append(t) }); err != nil {
		st.Abandon()
		return err
	}
	return st.Close()
}

// copyStore copies the spilled store's files into dst, so each setup
// recovers an identical, untouched store.
func copyStore(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, e := range ents {
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return writeFile(dst, func(f io.Writer) error {
		_, err := io.Copy(f, in)
		return err
	})
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// loadRelation reads the CSV the way catserve -csv does, with the demo
// schema declared so that numeric-looking categorical columns (zip codes)
// keep their type.
func loadRelation(path string) (*repro.Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.ReadCSV(datagen.TableName, bufio.NewReader(f), datagen.Schema(datagen.DatasetConfig{}))
}
