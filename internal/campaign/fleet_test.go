package campaign

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pfuzzer/internal/core"
	"pfuzzer/internal/registry"
)

// fakeRunner consumes a fixed budget in whatever slices it is given,
// recording concurrent entry to prove the one-worker-per-job rule.
type fakeRunner struct {
	budget   int
	spent    int
	inStep   atomic.Int32
	overlaps atomic.Int32
	steps    int
}

func (r *fakeRunner) Step(n int) (int, bool) {
	if r.inStep.Add(1) > 1 {
		r.overlaps.Add(1)
	}
	defer r.inStep.Add(-1)
	r.steps++
	left := r.budget - r.spent
	if n > left {
		n = left
	}
	r.spent += n
	return n, r.spent < r.budget
}

// TestFleetRunsAllJobs: every job completes its own budget, no job is
// stepped by two workers at once, and each job retires exactly once.
func TestFleetRunsAllJobs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			var jobs []*Job
			var runners []*fakeRunner
			var retired [9]atomic.Int32
			for i := range retired {
				r := &fakeRunner{budget: 10000 + 1000*i}
				runners = append(runners, r)
				jobs = append(jobs, &Job{Name: fmt.Sprintf("job%d", i), Runner: r,
					OnRetire: func(*Job) { retired[i].Add(1) }})
			}
			fl := Fleet{Workers: workers, Slice: 1024}
			fl.Run(jobs)
			for i, r := range runners {
				if r.spent != r.budget {
					t.Errorf("job%d spent %d of %d", i, r.spent, r.budget)
				}
				if r.overlaps.Load() != 0 {
					t.Errorf("job%d was stepped concurrently %d times", i, r.overlaps.Load())
				}
				if n := retired[i].Load(); n != 1 {
					t.Errorf("job%d retired %d times, want 1", i, n)
				}
				if r.steps < 2 {
					t.Errorf("job%d ran in %d steps; the fleet should be slicing", i, r.steps)
				}
			}
		})
	}
}

// TestFleetProgressSerialized: OnProgress fires once per step, is
// never called concurrently (the sink is deliberately unsynchronized
// under -race), and observes the final totals.
func TestFleetProgressSerialized(t *testing.T) {
	var events []Progress
	var mu sync.Mutex // only to silence the checker on the final read; calls are serialized by the fleet
	fl := Fleet{Workers: 4, Slice: 700, OnProgress: func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}}
	var jobs []*Job
	for i := 0; i < 5; i++ {
		jobs = append(jobs, &Job{Name: fmt.Sprintf("j%d", i), Runner: &fakeRunner{budget: 3000}})
	}
	fl.Run(jobs)
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := events[len(events)-1]
	if last.Finished != 5 || last.Total != 5 {
		t.Errorf("final progress %d/%d, want 5/5", last.Finished, last.Total)
	}
	if last.Execs != 5*3000 {
		t.Errorf("final progress execs %d, want %d", last.Execs, 5*3000)
	}
}

// TestFleetCampaignSeedIdentical is the orchestration acceptance
// property: pFuzzer campaigns multiplexed
// through a concurrent fleet emit exactly the sequences their
// standalone Runs do — slicing and interleaving perturb nothing.
func TestFleetCampaignSeedIdentical(t *testing.T) {
	subjects := []string{"expr", "cjson", "tinyc"}
	const execs = 3000

	want := map[string]*core.Result{}
	for _, name := range subjects {
		e, _ := registry.Get(name)
		want[name] = core.New(e.New(), core.Config{Seed: 42, MaxExecs: execs}).Run()
	}

	var jobs []*Job
	camps := map[string]*core.Campaign{}
	for _, name := range subjects {
		e, _ := registry.Get(name)
		c := core.NewCampaign(e.New(), core.Config{Seed: 42, MaxExecs: execs})
		camps[name] = c
		jobs = append(jobs, &Job{Name: name, Runner: c, Slice: 337})
	}
	fl := Fleet{Workers: 3}
	fl.Run(jobs)

	for _, name := range subjects {
		got, w := camps[name].Result(), want[name]
		if got.Execs != w.Execs || len(got.Valids) != len(w.Valids) {
			t.Fatalf("%s: fleet run execs=%d valids=%d, standalone execs=%d valids=%d",
				name, got.Execs, len(got.Valids), w.Execs, len(w.Valids))
		}
		for i := range w.Valids {
			if string(got.Valids[i].Input) != string(w.Valids[i].Input) {
				t.Errorf("%s: valid[%d] = %q, standalone %q", name, i, got.Valids[i].Input, w.Valids[i].Input)
			}
		}
	}
}
