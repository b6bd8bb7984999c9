package relation

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func shardTestRelation(t testing.TB, n int) *Relation {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "city", Type: Categorical},
		Attribute{Name: "price", Type: Numeric},
		Attribute{Name: "beds", Type: Numeric},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := New("ListProperty", s)
	cities := []string{"Seattle", "Redmond", "Bellevue", "Kirkland", "Tacoma"}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		r.MustAppend(Tuple{
			StringValue(cities[rng.Intn(len(cities))]),
			NumberValue(float64(rng.Intn(500)) * 1000),
			NumberValue(float64(rng.Intn(6))),
		})
	}
	return r
}

// TestShardSpans pins the span arithmetic: near-equal contiguous spans that
// cover [0, Len) exactly, with the remainder spread over the leading shards,
// empty trailing shards when n exceeds the row count, and n<1 clamped to 1.
func TestShardSpans(t *testing.T) {
	cases := []struct {
		rows, n int
	}{
		{100, 4}, {101, 4}, {103, 4}, {7, 3}, {5, 8}, {0, 3}, {40, 1}, {40, -2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("rows=%d/n=%d", tc.rows, tc.n), func(t *testing.T) {
			r := shardTestRelation(t, tc.rows)
			shards := r.Shards(tc.n)
			wantN := tc.n
			if wantN < 1 {
				wantN = 1
			}
			if len(shards) != wantN {
				t.Fatalf("got %d shards, want %d", len(shards), wantN)
			}
			pos := 0
			minLen, maxLen := tc.rows+1, 0
			for i, s := range shards {
				if s.Lo != pos {
					t.Fatalf("shard %d starts at %d, want %d (spans must be contiguous)", i, s.Lo, pos)
				}
				if s.Hi < s.Lo {
					t.Fatalf("shard %d has Hi=%d < Lo=%d", i, s.Hi, s.Lo)
				}
				if l := s.Len(); l > maxLen {
					maxLen = l
				}
				if l := s.Len(); l < minLen {
					minLen = l
				}
				pos = s.Hi
			}
			if pos != tc.rows {
				t.Fatalf("spans cover [0,%d), want [0,%d)", pos, tc.rows)
			}
			if maxLen-minLen > 1 {
				t.Errorf("span lengths differ by %d, want at most 1", maxLen-minLen)
			}
		})
	}
}

// TestShardCodes checks that the per-shard code views are exactly the parent
// column cut at the span boundaries — the zero-copy reuse the sharded
// counting sort depends on.
func TestShardCodes(t *testing.T) {
	r := shardTestRelation(t, 257)
	col, err := r.CatColumn("city")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range r.Shards(4) {
		codes := s.Codes(col)
		if !reflect.DeepEqual(codes, col.Codes[s.Lo:s.Hi]) {
			t.Fatalf("shard [%d,%d): Codes is not the parent subslice", s.Lo, s.Hi)
		}
		if s.Relation() != r {
			t.Fatal("Relation() must return the parent")
		}
	}
}

// TestShardSelect checks that per-shard selection equals the span cut of the
// parent's selection, so sharded scans and whole-relation scans agree.
func TestShardSelect(t *testing.T) {
	r := shardTestRelation(t, 301)
	pred := NewAnd(
		NewIn("city", "Seattle", "Tacoma"),
		NewClosedRange("beds", 1, 4),
	)
	all := r.Select(pred)
	for _, n := range []int{1, 3, 8} {
		merged := []int{}
		for _, s := range r.Shards(n) {
			got := s.Select(pred)
			for _, row := range got {
				if row < s.Lo || row >= s.Hi {
					t.Fatalf("shards=%d: row %d outside span [%d,%d)", n, row, s.Lo, s.Hi)
				}
			}
			merged = append(merged, got...)
		}
		if !reflect.DeepEqual(merged, all) {
			t.Fatalf("shards=%d: concatenated selection differs from parent (%d vs %d rows)",
				n, len(merged), len(all))
		}
	}
}

// TestShardSortByValueDeterministic pins that the per-node numeric sort is a
// pure function of its input — including NaNs, which defeat `<` — so the
// (never-sharded) numeric path yields the same projection in every build
// regardless of the shard count.
func TestShardSortByValueDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, size := range []int{0, 1, 17, 1000, 5000} {
		col := make([]float64, size)
		tset := make([]int, size)
		for i := range col {
			col[i] = float64(rng.Intn(20)) // heavy ties on purpose
			if rng.Intn(10) == 0 {
				col[i] = math.NaN()
			}
			tset[i] = i
		}
		wantRows, wantVals := SortByValue(col, tset)
		for rep := 0; rep < 3; rep++ {
			gotRows, gotVals := SortByValue(col, tset)
			if !reflect.DeepEqual(gotRows, wantRows) {
				t.Fatalf("size=%d rep=%d: sort permutation is not deterministic", size, rep)
			}
			for i := range wantVals {
				// Bitwise comparison: NaN == NaN is false but the values
				// must still agree position by position.
				if math.Float64bits(gotVals[i]) != math.Float64bits(wantVals[i]) {
					t.Fatalf("size=%d rep=%d: vals[%d] = %v, want %v", size, rep, i, gotVals[i], wantVals[i])
				}
			}
		}
	}
}

// TestShardConcurrentAppendSelect races appends against snapshot readers;
// run under -race (ci.sh's shard pass does). Readers must always see a
// consistent prefix: each operation works off one RCU snapshot, so rows
// appended mid-scan are simply not visible to it.
func TestShardConcurrentAppendSelect(t *testing.T) {
	r := shardTestRelation(t, 500)
	pred := NewClosedRange("beds", 2, 5)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Bounded so the relation (and the per-iteration column rebuilds the
		// appends invalidate) stays small; plenty for the race detector.
		for i := 0; i < 5000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.MustAppend(Tuple{StringValue("Seattle"), NumberValue(float64(i)), NumberValue(3)})
			runtime.Gosched()
		}
	}()

	for i := 0; i < 50; i++ {
		n := r.Len()
		for _, s := range r.Shards(4) {
			rows := s.Select(pred)
			for _, row := range rows {
				if row >= s.Hi {
					t.Fatalf("row %d beyond shard span %d", row, s.Hi)
				}
			}
		}
		if got := r.Len(); got < n {
			t.Fatalf("relation shrank: %d -> %d", n, got)
		}
		if _, err := r.CatColumn("city"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
