package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"pfuzzer/internal/subject"
	"pfuzzer/internal/trace"
)

// maxSpans caps the spans one run keeps in memory; later spans are
// counted as dropped instead of growing the trace without bound.
const maxSpans = 200000

// runSpanEvery is the sampling period of subject.Run spans: runs number
// in the millions, so every call is counted and timed but only every
// runSpanEvery-th becomes a span.
const runSpanEvery = 4096

// span is one recorded interval at a layer boundary. Spans of one
// campaign (one request, on the service workload) share Trace.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced pass runs the same code.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	next    int64
	spans   []span
	dropped int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 4096)}
}

// id reserves a span identifier, so children can name their parent
// before the parent span ends.
func (r *recorder) id() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a finished span under a previously reserved id (0
// reserves a fresh one) and returns the id.
func (r *recorder) add(id int64, name, traceID string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id == 0 {
		r.next++
		id = r.next
	}
	if len(r.spans) >= maxSpans {
		r.dropped++
		return id
	}
	r.spans = append(r.spans, span{
		Name: name, ID: id, Parent: parent, Trace: traceID,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return id
}

// count reports how many spans were kept.
func (r *recorder) count() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write saves the spans, with the host they were taken on, as one JSON
// document at path.
func (r *recorder) write(path string, head map[string]any) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	doc := map[string]any{"host": hostInfo(), "spans": r.spans, "dropped": r.dropped}
	for k, v := range head {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// tracedProgram is a transparent subject.Program wrapper: it forwards
// every Run and keeps the call count and total Run time, sampling one
// span per runSpanEvery calls under the current Step span. The engines
// run it on the serial path (Workers unset), so its counters need no
// locking.
type tracedProgram struct {
	subject.Program
	rec     *recorder
	traceID string
	step    int64 // span id of the Step slice in progress

	calls int64
	total time.Duration
}

func (p *tracedProgram) Run(t *trace.Tracer) int {
	t0 := time.Now()
	exit := p.Program.Run(t)
	t1 := time.Now()
	p.calls++
	p.total += t1.Sub(t0)
	if p.calls%runSpanEvery == 0 {
		p.rec.add(0, "subject.Run", p.traceID, p.step, t0, t1)
	}
	return exit
}

// rtSample is a reading of the runtime counters taken around each
// campaign (runtime.MemStats for allocations, runtime/metrics for the
// CPU split).
type rtSample struct {
	mallocs, bytes uint64
	gcCPU, usedCPU float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() rtSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return rtSample{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcCPU: val(0), usedCPU: val(1) - val(2),
	}
}

// rtDelta accumulates runtime counter deltas over measured intervals.
type rtDelta struct {
	mallocs, bytes uint64
	gcCPU, usedCPU float64
}

func (d *rtDelta) addSince(before rtSample) {
	now := readRuntime()
	d.merge(rtDelta{now.mallocs - before.mallocs, now.bytes - before.bytes,
		now.gcCPU - before.gcCPU, now.usedCPU - before.usedCPU})
}

func (d *rtDelta) merge(o rtDelta) {
	d.mallocs += o.mallocs
	d.bytes += o.bytes
	d.gcCPU += o.gcCPU
	d.usedCPU += o.usedCPU
}

// hostInfo is the metadata every result carries: a speed figure means
// nothing without the machine it was taken on.
func hostInfo() map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}
