package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/resilience/faultinject"
	"repro/internal/server"
)

// The serving stack runs in a child process (this binary's "serve" mode) so
// that its resident set and set-up time are its own. The parent talks to it
// over stdin/stdout, one line per message:
//
//	child:  ready <addr> <setup-ns>
//	parent: mark        child: ok         (snapshot allocation counters)
//	parent: stop        child: <report>   (one JSON line, then exit)
//
// A child whose stdin closes shuts down, so it never outlives the parent.

// serverOpts is one child's configuration.
type serverOpts struct {
	csv    string // load this relation before set-up (in-memory workloads)
	store  string // open this durable store copy instead (durable workloads)
	log    string
	learn  bool
	trace  bool     // record handler spans around Server.Handler().ServeHTTP
	faults []string // faultinject latency rules, "site=duration"
}

func (o serverOpts) args() []string {
	a := []string{"serve", "-log", o.log}
	if o.csv != "" {
		a = append(a, "-csv", o.csv)
	}
	if o.store != "" {
		a = append(a, "-store", o.store)
	}
	if o.learn {
		a = append(a, "-learn")
	}
	if o.trace {
		a = append(a, "-trace")
	}
	for _, f := range o.faults {
		a = append(a, "-fault", f)
	}
	return a
}

// serverReport is what a child reports when stopped.
type serverReport struct {
	OpenNanos        int64     `json:"openNanos"`
	MaterializeNanos int64     `json:"materializeNanos"`
	PreprocessNanos  int64     `json:"preprocessNanos"`
	LoadedBytes      uint64    `json:"loadedBytes"`
	VmHWMKiB         int64     `json:"vmHWMKiB"`
	AllocBytes       uint64    `json:"allocBytes"` // TotalAlloc since the last mark
	GOMAXPROCS       int       `json:"gomaxprocs"`
	Handler          []reqSpan `json:"handler,omitempty"`
}

// reqSpan is one handler call: the request id the client sent, and the
// call's start (relative to the child's mark) and duration.
type reqSpan struct {
	Req   int   `json:"req"`
	Start int64 `json:"start"`
	Dur   int64 `json:"dur"`
}

// setupTimes splits one set-up into the program calls it made.
type setupTimes struct {
	open, materialize, preprocess time.Duration
	loadedBytes                   uint64
}

// buildStack runs the catserve set-up path over already-loaded inputs:
// OpenDurable and DurableStore.Relation for a store, then NewSystem and
// server.New with catserve's defaults. rel is ignored when store is set.
func buildStack(rel *repro.Relation, store, logPath string, learn bool) (*server.Server, *repro.System, setupTimes, error) {
	var st setupTimes
	var dur *repro.DurableStore
	if store != "" {
		t := time.Now()
		var err error
		dur, err = repro.OpenDurable(store, repro.DurableOptions{Sync: repro.SyncNone})
		if err != nil {
			return nil, nil, st, fmt.Errorf("opening store: %w", err)
		}
		st.open = time.Since(t)
		t = time.Now()
		rel, err = dur.Relation(datagen.TableName)
		if err != nil {
			return nil, nil, st, fmt.Errorf("materializing store: %w", err)
		}
		st.materialize = time.Since(t)
		st.loadedBytes = dur.Stats().LoadedBytes
	}
	logF, err := os.Open(logPath)
	if err != nil {
		return nil, nil, st, err
	}
	defer logF.Close()
	t := time.Now()
	sys, err := repro.NewSystem(rel, repro.Config{
		Durable:          dur,
		Intervals:        repro.DemoIntervals(),
		WorkloadReader:   logF,
		TreeCacheEntries: 256,
		TreeCacheBytes:   64 << 20,
	})
	if err != nil {
		return nil, nil, st, err
	}
	st.preprocess = time.Since(t)
	srv, err := server.New(server.Config{System: sys, MaxDepth: 6, MaxChildren: 200, Learn: learn})
	if err != nil {
		return nil, nil, st, err
	}
	return srv, sys, st, nil
}

// activateFaults installs latency rules parsed from "site=duration".
func activateFaults(rules []string) error {
	if len(rules) == 0 {
		return nil
	}
	inj := faultinject.New(1)
	for _, r := range rules {
		site, d, ok := strings.Cut(r, "=")
		lat, err := time.ParseDuration(d)
		if !ok || err != nil {
			return fmt.Errorf("bad fault rule %q (want site=duration)", r)
		}
		inj.Set(site, faultinject.Rule{Latency: lat})
	}
	faultinject.Activate(inj)
	return nil
}

type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

// serveMain is the child process.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var o serverOpts
	fs.StringVar(&o.csv, "csv", "", "relation CSV")
	fs.StringVar(&o.store, "store", "", "durable store directory")
	fs.StringVar(&o.log, "log", "", "mined query log, one statement per line")
	fs.BoolVar(&o.learn, "learn", false, "fold served queries into the statistics")
	fs.BoolVar(&o.trace, "trace", false, "record handler spans")
	fs.Var((*stringList)(&o.faults), "fault", "latency rule site=duration (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runServer(o, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench serve:", err)
		return 1
	}
	return 0
}

func runServer(o serverOpts, cmds io.Reader, out io.Writer) error {
	if err := activateFaults(o.faults); err != nil {
		return err
	}
	// Loading the CSV is input handling, not set-up: the clock starts at the
	// first program call.
	var rel *repro.Relation
	if o.csv != "" {
		var err error
		if rel, err = loadRelation(o.csv); err != nil {
			return err
		}
	}
	start := time.Now()
	srv, sys, st, err := buildStack(rel, o.store, o.log, o.learn)
	if err != nil {
		return err
	}
	handler := srv.Handler()
	tr := &handlerTrace{}
	if o.trace {
		handler = tr.wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second, IdleTimeout: 2 * time.Minute}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	setup := time.Since(start)
	fmt.Fprintf(out, "ready %s %d\n", ln.Addr(), setup.Nanoseconds())

	var alloc0 uint64
	sc := bufio.NewScanner(cmds)
	for sc.Scan() {
		switch sc.Text() {
		case "mark":
			alloc0 = totalAlloc()
			tr.reset()
			fmt.Fprintln(out, "ok")
		case "stop":
			hwm, err := vmHWM()
			if err != nil {
				return err
			}
			rep := serverReport{
				OpenNanos:        st.open.Nanoseconds(),
				MaterializeNanos: st.materialize.Nanoseconds(),
				PreprocessNanos:  st.preprocess.Nanoseconds(),
				LoadedBytes:      st.loadedBytes,
				AllocBytes:       totalAlloc() - alloc0,
				VmHWMKiB:         hwm,
				GOMAXPROCS:       runtime.GOMAXPROCS(0),
				Handler:          tr.spans(),
			}
			srv.BeginShutdown()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err = hs.Shutdown(ctx)
			cancel()
			if err != nil {
				return fmt.Errorf("shutdown: %w", err)
			}
			if err := <-served; !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			if d := sys.DurableStore(); d != nil {
				if err := d.Close(); err != nil {
					return err
				}
			}
			return json.NewEncoder(out).Encode(rep)
		default:
			return fmt.Errorf("unknown command %q", sc.Text())
		}
	}
	hs.Close()
	return errors.New("parent went away")
}

// handlerTrace keeps one span per handled request in memory.
type handlerTrace struct {
	mu   sync.Mutex
	t0   time.Time
	recs []reqSpan
}

func (h *handlerTrace) reset() {
	h.mu.Lock()
	h.t0 = time.Now()
	h.recs = h.recs[:0]
	h.mu.Unlock()
}

func (h *handlerTrace) spans() []reqSpan {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.recs
}

func (h *handlerTrace) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		dur := time.Since(start)
		id, err := strconv.Atoi(r.Header.Get(reqIDHeader))
		if err != nil {
			id = -1
		}
		h.mu.Lock()
		h.recs = append(h.recs, reqSpan{Req: id, Start: start.Sub(h.t0).Nanoseconds(), Dur: dur.Nanoseconds()})
		h.mu.Unlock()
	})
}

// reqIDHeader carries the stream index of a traced request.
const reqIDHeader = "X-Bench-Req"

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// vmHWM is the process's peak resident set in KiB, from /proc/self/status.
func vmHWM() (int64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// child is the parent's handle on one serving process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	addr  string
	setup time.Duration // child-side: first program call to listening
	ready time.Time     // parent clock when the ready line arrived
}

// startChild launches a serving process and waits until it listens.
func startChild(o serverOpts) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, o.args()...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, out: bufio.NewReaderSize(stdout, 1<<20)}
	line, err := c.out.ReadString('\n')
	if err != nil {
		c.kill()
		return nil, fmt.Errorf("serving process failed to start: %w", err)
	}
	c.ready = time.Now()
	var ns int64
	if _, err := fmt.Sscanf(line, "ready %s %d", &c.addr, &ns); err != nil {
		c.kill()
		return nil, fmt.Errorf("serving process: unexpected %q", line)
	}
	c.setup = time.Duration(ns)
	return c, nil
}

func (c *child) url() string { return "http://" + c.addr + "/v1/query" }

// mark resets the child's allocation baseline and handler spans.
func (c *child) mark() error {
	if _, err := io.WriteString(c.stdin, "mark\n"); err != nil {
		return err
	}
	line, err := c.out.ReadString('\n')
	if err != nil || line != "ok\n" {
		return fmt.Errorf("serving process: mark failed (%q, %v)", line, err)
	}
	return nil
}

// stop asks the child for its report, then waits for it to exit.
func (c *child) stop() (serverReport, error) {
	var rep serverReport
	if _, err := io.WriteString(c.stdin, "stop\n"); err != nil {
		c.kill()
		return rep, err
	}
	err := json.NewDecoder(c.out).Decode(&rep)
	c.stdin.Close()
	if werr := c.cmd.Wait(); err == nil {
		err = werr
	}
	return rep, err
}

// kill ends the child without a report; safe after stop.
func (c *child) kill() {
	c.stdin.Close()
	if c.cmd.ProcessState == nil {
		c.cmd.Process.Kill()
		c.cmd.Wait()
	}
}
