// Command perfbench is the repository's layered benchmark. It drives
// the public APIs of internal/core, internal/corpus, internal/daemon
// and internal/shim on one of three workloads, checks every output
// against an oracle that does not trust the engine, and prints each
// metric by name with its unit. The last line of standard output is
// one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing at all. With --trace 1 the workload runs twice, untraced and
// then traced; the metrics are the per-layer ones plus the tracing
// overhead, and the spans recorded at the layer boundaries are written
// to .bench_out/ when the run ends. README.md beside this file gives
// the workload rationale and the metric predictions.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload explore|cached|service --seed N --seconds S --trace 0|1
//
// The command exits non-zero only when a correctness check fails or
// the run cannot complete; it has no throughput gate of any kind.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"pfuzzer/internal/registry"
	"pfuzzer/internal/shim"
)

// shimServeArg makes the binary serve subjects over the shim protocol
// on stdin/stdout instead of benchmarking: the service workload's
// shimmed campaigns re-execute the benchmark binary itself as their
// out-of-process subject, as the shim tests do.
const shimServeArg = "shim-serve"

// runLimit bounds a whole run, so a wedged daemon or child fails the
// run instead of hanging it.
const runLimit = 160 * time.Second

func main() {
	if len(os.Args) == 2 && os.Args[1] == shimServeArg {
		if err := shim.Serve(os.Stdin, os.Stdout, shim.ServeConfig{Lookup: registry.NewProgram}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench shim:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// env is what a workload runs with.
type env struct {
	ctx     context.Context
	seed    int64
	seconds time.Duration
	trace   bool
	root    string // private state directory, removed when the run ends
	exe     string // this binary, served as the self-shim
	spans   string // where the traced pass writes its spans
	log     *lockedBuffer
	cleanup *cleanups
}

// metric is one reported figure. note carries the sample count or the
// base of a ratio for the human-readable report.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// report collects a run's metrics and the verdicts of its checks.
type report struct {
	endToEnd  []metric
	layers    []metric
	attempted int
	failures  []string
	lines     []string
}

// check records one attempted operation or correctness check.
func (r *report) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	return ok
}

// checkErr records an operation that failed with err (nil = success).
func (r *report) checkErr(err error, what string) bool {
	if err != nil {
		return r.check(false, "%s: %v", what, err)
	}
	return r.check(true, "")
}

func (r *report) e2e(name string, v float64, unit, note string) {
	r.endToEnd = append(r.endToEnd, metric{name, v, unit, note})
}

func (r *report) layer(name string, v float64, unit, note string) {
	r.layers = append(r.layers, metric{name, v, unit, note})
}

var workloads = map[string]func(*env, *report) error{
	"explore": func(e *env, r *report) error {
		return campaignWorkload(e, r, explorePlan(e.seed, exploreSeeds), explorePlan(e.seed, exploreFirstSeeds))
	},
	"cached": func(e *env, r *report) error {
		return campaignWorkload(e, r, cachedPlan(e.seed, cachedSeeds), cachedPlan(e.seed, cachedFirstSeeds))
	},
	"service": serviceWorkload,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: explore, cached or service")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "seconds each measured pass runs")
	traceFlag := fs.Int("trace", 0, "1 = per-layer run (untraced pass, then traced pass)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload explore|cached|service, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cl := &cleanups{}
	defer cl.run()
	// A signal takes the same cleanup path as a normal exit: daemons
	// closed (which kills their shim children), state removed.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sigs)
		close(sigs) // no signal can arrive any more; ends the goroutine
	}()
	go func() {
		if _, ok := <-sigs; ok {
			cl.run()
			os.Exit(2)
		}
	}()

	if err := os.MkdirAll(".bench_tmp", 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	root, err := os.MkdirTemp(".bench_tmp", "run-*")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cl.add(func() {
		os.RemoveAll(root)      //nolint:errcheck // best effort on the way out
		os.Remove(".bench_tmp") //nolint:errcheck // only succeeds when no other run uses it
	})
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	e := &env{
		ctx: ctx, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *traceFlag == 1, root: root, exe: exe,
		spans:   filepath.Join(".bench_out", fmt.Sprintf("spans-%s-seed%d.json", *workload, *seed)),
		log:     &lockedBuffer{},
		cleanup: cl,
	}
	rep := &report{}
	if err := wl(e, rep); err != nil {
		rep.check(false, "%s: %v", *workload, err)
	}
	// Tear down before printing: a reader that has gone away must not
	// leave state behind when the write fails.
	cl.run()
	if len(rep.failures) > 0 && e.log.Len() > 0 {
		fmt.Fprintf(stderr, "daemon log:\n%s", e.log.String())
	}
	printReport(stdout, stderr, *workload, e, rep)
	if len(rep.failures) > 0 {
		return 1
	}
	return 0
}

// printReport writes the human-readable report, then the one-line
// JSON result as the last line of stdout.
func printReport(stdout, stderr io.Writer, workload string, e *env, rep *report) {
	h := hostInfo()
	fmt.Fprintf(stdout, "host: num_cpu=%v gomaxprocs=%v go=%v os/arch=%v\n",
		h["num_cpu"], h["gomaxprocs"], h["go_version"], h["os_arch"])
	fmt.Fprintf(stdout, "workload=%s seed=%d seconds=%.0f trace=%v\n", workload, e.seed, e.seconds.Seconds(), e.trace)
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	shown := complete(rep, endToEndMetrics, rep.endToEnd)
	if e.trace {
		shown = complete(rep, layerMetrics, rep.layers)
	}
	for _, m := range shown {
		fmt.Fprintf(stdout, "  %-34s %14.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	failed := len(rep.failures)
	fmt.Fprintf(stdout, "  %-34s %14.6g %-6s (%d failed of %d attempted)\n", "failed_share",
		ratio(float64(failed), float64(rep.attempted)), "ratio", failed, rep.attempted)
	for _, f := range rep.failures {
		fmt.Fprintln(stderr, "FAIL:", f)
	}
	ms := map[string]any{}
	for _, m := range shown {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	attempted := rep.attempted
	if attempted < 1 {
		attempted = 1
	}
	b, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": ms,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding result:", err)
		return
	}
	fmt.Fprintln(stdout, string(b))
}

// cleanups runs registered teardown functions once, last-in first-out,
// from whichever exit path gets there first.
type cleanups struct {
	mu   sync.Mutex
	fns  []func()
	done bool
}

func (c *cleanups) add(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.fns = append(c.fns, f)
}

func (c *cleanups) run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return
	}
	c.done = true
	for i := len(c.fns) - 1; i >= 0; i-- {
		c.fns[i]()
	}
}

// lockedBuffer collects daemon and shim-child log output, which
// arrives from several goroutines; it is printed only when a check
// fails.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Len()
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// liveHeapMB collects the heap and returns what is still live: the
// memory the program retains at that point. Unlike the resident-set
// high-water mark, which moved by half between runs of one seed with
// the timing of GC cycles, it is fixed by the work done.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// timingSummary renders a median and tail percentile with their
// sample counts, and reports both as end-to-end metrics.
func timingSummary(r *report, base string, unit string, xs []float64) {
	p50, _ := percentile(xs, 50)
	p90, beyond := percentile(xs, 90)
	r.e2e(base+"_p50", p50, unit, fmt.Sprintf("(n=%d)", len(xs)))
	r.e2e(base+"_p90", p90, unit, fmt.Sprintf("(n=%d, %d beyond)", len(xs), beyond))
}
