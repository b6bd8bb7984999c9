package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"

	"repro"
	"repro/internal/datagen"
	"repro/internal/server"
)

// reference is the oracle responses are checked against: an uncached,
// Shards=1 server over a freshly generated copy of the run's data, so the
// CSV and durable-store round trips are checked too.
type reference struct {
	h http.Handler
}

func newReference(in *inputs) (*reference, error) {
	f, err := os.Open(in.logPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sys, err := repro.NewSystem(datagen.Dataset(in.dataCfg), repro.Config{
		Intervals:      repro.DemoIntervals(),
		WorkloadReader: f,
		Shards:         1,
	})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{System: sys, MaxDepth: 6, MaxChildren: 200})
	if err != nil {
		return nil, err
	}
	return &reference{h: srv.Handler()}, nil
}

// body is the reference response body for one request body.
func (r *reference) body(req []byte) []byte {
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(req)))
	return rec.Body.Bytes()
}

// resultCounts is len(Relation.Select) for each query over the run's data.
func resultCounts(in *inputs, sqls []string) ([]int, error) {
	rel := datagen.Dataset(in.dataCfg)
	out := make([]int, len(sqls))
	for i, sql := range sqls {
		q, err := repro.ParseQuery(sql)
		if err != nil {
			return nil, err
		}
		out[i] = len(rel.Select(q.Predicate()))
	}
	return out, nil
}
