package datagen

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/relation"
)

// TestStreamMatchesDataset pins the streaming contract: Stream's row i is
// identical to Dataset's row i for the same config — same rng sequence,
// same values, same arity.
func TestStreamMatchesDataset(t *testing.T) {
	cfg := DatasetConfig{Rows: 500, Seed: 11}
	want := Dataset(cfg)
	n := 0
	err := Stream(cfg, func(i int, tup relation.Tuple) error {
		if i != n {
			t.Fatalf("emit index %d, want %d", i, n)
		}
		row := want.Row(i)
		if len(tup) != len(row) {
			t.Fatalf("row %d: arity %d, want %d", i, len(tup), len(row))
		}
		for j := range row {
			if tup[j] != row[j] {
				t.Fatalf("row %d col %d: %v, want %v", i, j, tup[j], row[j])
			}
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != cfg.Rows {
		t.Fatalf("emitted %d rows, want %d", n, cfg.Rows)
	}
}

// TestStreamStopsOnError checks a non-nil emit error halts generation and
// propagates.
func TestStreamStopsOnError(t *testing.T) {
	sentinel := errors.New("stop")
	calls := 0
	err := Stream(DatasetConfig{Rows: 100, Seed: 3}, func(i int, _ relation.Tuple) error {
		calls++
		if i == 6 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if calls != 7 {
		t.Fatalf("emit called %d times, want 7", calls)
	}
}

// TestStreamCSVMatchesWriteCSV pins byte-identity between the constant-memory
// CSV path and materialize-then-WriteCSV.
func TestStreamCSVMatchesWriteCSV(t *testing.T) {
	cfg := DatasetConfig{Rows: 300, Seed: 4}
	var want bytes.Buffer
	if err := Dataset(cfg).WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	n, err := StreamCSV(&got, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n != cfg.Rows {
		t.Fatalf("StreamCSV rows = %d, want %d", n, cfg.Rows)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("streamed CSV differs from materialized CSV (%d vs %d bytes)",
			got.Len(), want.Len())
	}
}
