package main

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: each waits for its tree before
// sending the next request, as a treeview user does.
const clients = 2

// desc is what one response body says about the work it took.
type desc struct {
	resultCount, categories, bytes int
}

// parseDesc reads resultCount and categories from a /v1/query body. Both
// are top-level fields that precede the tree, so the first match is theirs.
func parseDesc(body []byte) (desc, bool) {
	rc, ok1 := jsonInt(body, `"resultCount":`)
	cats, ok2 := jsonInt(body, `"categories":`)
	return desc{resultCount: rc, categories: cats, bytes: len(body)}, ok1 && ok2
}

func jsonInt(body []byte, key string) (int, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(key):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(rest[:j]))
	return n, err == nil
}

// response is one completed request as the checker sees it.
type response struct {
	idx    int // position in the request stream
	status int
	cache  string
	body   []byte // valid only during the check call
}

// checker verifies one response and describes it; ok=false counts the
// request as failed. It runs on the client goroutines and must be safe for
// concurrent use.
type checker func(r response) (desc, bool)

// sample is one request's outcome.
type sample struct {
	idx   int
	start time.Duration // since the load began
	lat   time.Duration
	ok    bool
	hit   bool
	desc  desc
}

// loadSpec describes one closed-loop load.
type loadSpec struct {
	url    string
	bodies [][]byte
	cycle  bool          // wrap around bodies; else stop at their end
	limit  int           // send at most this many requests (0: no limit)
	window time.Duration // stop sending new requests after this (0: no window)
	reqID  bool          // send the stream index in X-Bench-Req
	check  checker
}

// loadResult is one load's samples in completion order per client, merged.
type loadResult struct {
	samples   []sample
	wall      time.Duration // first send to last completion
	exhausted bool          // the stream ran out before the window closed
}

func (r *loadResult) succeeded() int {
	n := 0
	for _, s := range r.samples {
		if s.ok {
			n++
		}
	}
	return n
}

func (r *loadResult) failed() int { return len(r.samples) - r.succeeded() }

func (r *loadResult) latencies() []time.Duration {
	out := make([]time.Duration, len(r.samples))
	for i, s := range r.samples {
		out[i] = s.lat
	}
	return out
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// send posts one body and reads the whole response into buf.
func send(c *http.Client, url string, body []byte, id int, buf *bytes.Buffer) (status int, cache string, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if id >= 0 {
		req.Header.Set(reqIDHeader, strconv.Itoa(id))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, "", err
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), nil
}

// runLoad drives spec with the closed-loop clients.
func runLoad(spec loadSpec) *loadResult {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	var (
		next      atomic.Int64
		exhausted atomic.Bool
		wg        sync.WaitGroup
		per       [clients][]sample
	)
	// Collect this process's garbage from input generation now, so its
	// collector does not compete with the server inside the window.
	debug.FreeOSMemory()
	t0 := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				switch {
				case spec.limit > 0 && i >= spec.limit:
					return
				case spec.window > 0 && time.Since(t0) >= spec.window:
					return
				case !spec.cycle && i >= len(spec.bodies):
					exhausted.Store(true)
					return
				}
				id := -1
				if spec.reqID {
					id = i
				}
				start := time.Now()
				status, cache, err := send(client, spec.url, spec.bodies[i%len(spec.bodies)], id, &buf)
				lat := time.Since(start)
				s := sample{idx: i, start: start.Sub(t0), lat: lat, hit: cache == "hit"}
				if err == nil {
					s.desc, s.ok = spec.check(response{idx: i, status: status, cache: cache, body: buf.Bytes()})
				}
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	res := &loadResult{exhausted: exhausted.Load()}
	for _, ss := range per {
		res.samples = append(res.samples, ss...)
		for _, s := range ss {
			if end := s.start + s.lat; end > res.wall {
				res.wall = end
			}
		}
	}
	return res
}

// prime sends every body once, sequentially, and returns the bodies.
func prime(url string, bodies [][]byte) ([][]byte, error) {
	client := newHTTPClient()
	defer client.CloseIdleConnections()
	var buf bytes.Buffer
	out := make([][]byte, len(bodies))
	for i, b := range bodies {
		status, _, err := send(client, url, b, -1, &buf)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("priming request %d: status %d: %s", i, status, buf.Bytes())
		}
		out[i] = bytes.Clone(buf.Bytes())
	}
	return out, nil
}
