package core

import (
	"runtime"
	"testing"

	"pfuzzer/internal/subject"
	"pfuzzer/internal/subjects/cjson"
	"pfuzzer/internal/subjects/expr"
	"pfuzzer/internal/subjects/mjs"
	"pfuzzer/internal/trace"
)

// Pinned steady-state allocation budgets for the trajectory hot path.
// The benchmarks in alloc_bench_test.go measure; these tests enforce,
// so a regression fails `go test` instead of silently drifting until
// someone re-reads a benchmark. Budgets are exact where the design
// says zero and carry headroom of one where the count depends on input
// shape. Skipped under -short: the CI race pass runs -short, and
// instrumentation (race, coverage) adds allocations the budgets do not
// describe.

// TestSinkExecuteAllocFree pins the arena contract: after the first
// (warming) execution, a sink-backed subject run allocates nothing —
// comparisons, block sets and comparison byte payloads all land in the
// sink's reused buffers.
func TestSinkExecuteAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets assume an uninstrumented build")
	}
	prog := expr.New()
	input := []byte("(1+2)*(3-4)#")
	var sink trace.Sink
	subject.ExecuteInto(prog, input, traceOpts(), &sink)
	if n := testing.AllocsPerRun(200, func() {
		subject.ExecuteInto(prog, input, traceOpts(), &sink)
	}); n != 0 {
		t.Errorf("sink-backed execution allocates %.1f/op in steady state, want 0", n)
	}
}

// TestFactsDistillAllocBudget pins the deriving-run distillation at
// its designed floor. A memoised distillation allocates the three
// slices a cache entry keeps (trimmed blocks, the final-index
// comparison headers, their packed byte blob) plus one of headroom for
// block-count growth. A scratch-backed one, the path of a campaign
// without a live cache, allocates only the trimmed blocks its
// children's parentFacts keep; everything else must come from the
// scratch.
func TestFactsDistillAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets assume an uninstrumented build")
	}
	prog := cjson.New()
	input := []byte(`{"a":[1,2`)
	var sink trace.Sink
	rec := subject.ExecuteInto(prog, input, traceOpts(), &sink)
	var rf runFacts
	if n := testing.AllocsPerRun(200, func() {
		factsOfInto(&rf, rec, true, nil)
	}); n > 4 {
		t.Errorf("deriving distillation allocates %.1f/op in steady state, want <= 4", n)
	}
	var scratch distillScratch
	if n := testing.AllocsPerRun(200, func() {
		factsOfInto(&scratch.rf, rec, true, &scratch)
	}); n != 1 {
		t.Errorf("scratch-backed deriving distillation allocates %.1f/op in steady state, want 1", n)
	}
}

// TestCampaignAllocBudget pins a whole campaign's allocations per
// execution (BenchmarkCampaignPerExec's workload). Writing each child
// into the input arena, instead of allocating the child, a dedup key
// and a map slot, took the figure from 7.56 to 4.97; the budget is
// that plus one of headroom.
func TestCampaignAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets assume an uninstrumented build")
	}
	const execs = 4000
	var ran int
	n := testing.AllocsPerRun(2, func() {
		ran = New(expr.New(), Config{Seed: 42, MaxExecs: execs}).Run().Execs
	})
	if perExec := n / float64(ran); perExec > 5.97 {
		t.Errorf("an expr campaign allocates %.2f/exec, want <= 5.97", perExec)
	}
}

// TestCampaignAllocBudgetCacheOff is TestCampaignAllocBudget without
// the cache, the path a campaign takes once its cache retires: nothing
// memoises a run's facts, so the distillation reuses the trajectory's
// scratch. That took the figure from 4.53 to 2.93; the budget is that
// plus one.
func TestCampaignAllocBudgetCacheOff(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets assume an uninstrumented build")
	}
	const execs = 4000
	var ran int
	n := testing.AllocsPerRun(2, func() {
		ran = New(expr.New(), Config{Seed: 42, MaxExecs: execs, Cache: CacheOff}).Run().Execs
	})
	if perExec := n / float64(ran); perExec > 3.93 {
		t.Errorf("an expr campaign without a cache allocates %.2f/exec, want <= 3.93", perExec)
	}
}

// TestRetainedBytesPerInput pins what a campaign keeps alive per
// enqueued input: the live heap after a forced collection at the end of
// an mjs campaign, its engine still referenced, over the inputs its
// arena holds. With a seen map, a key string, a child slice and an
// 80-byte candidate per input the figure was 213 B; with the arena and
// 32-byte candidates it is 127 B. The bound sits halfway.
func TestRetainedBytesPerInput(t *testing.T) {
	if testing.Short() {
		t.Skip("heap budgets assume an uninstrumented build")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f := New(mjs.New(), Config{Seed: 1, MaxExecs: 20000})
	f.Run()
	runtime.GC()
	runtime.ReadMemStats(&after)
	inputs := f.inputs.len()
	runtime.KeepAlive(f)
	perInput := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(inputs)
	if perInput > 170 {
		t.Errorf("an mjs campaign retains %.0f B per enqueued input (%d inputs), want <= 170", perInput, inputs)
	}
}
