package campaign

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// blockingRunner spends its slice only after being released, so tests
// can hold a step in flight deterministically.
type blockingRunner struct {
	entered chan struct{} // closed-ish: one token per Step entry
	release chan struct{} // one token releases one Step
	spent   atomic.Int64
}

func newBlockingRunner() *blockingRunner {
	return &blockingRunner{
		entered: make(chan struct{}, 64),
		release: make(chan struct{}, 64),
	}
}

func (r *blockingRunner) Step(n int) (int, bool) {
	r.entered <- struct{}{}
	<-r.release
	r.spent.Add(int64(n))
	return n, true
}

// TestJobCancel: a cancelled queued job retires without another step,
// a job cancelled mid-step finishes that slice first, and OnRetire
// fires exactly once either way.
func TestJobCancel(t *testing.T) {
	r := newBlockingRunner()
	var retired [2]atomic.Int32
	queued := &fakeRunner{budget: 1 << 30}
	jobs := []*Job{
		{Name: "stepping", Runner: r, OnRetire: func(*Job) { retired[0].Add(1) }},
		{Name: "queued", Runner: queued, OnRetire: func(*Job) { retired[1].Add(1) }},
	}
	done := make(chan struct{})
	fl := Fleet{Workers: 1, Slice: 32}
	go func() {
		fl.Run(jobs)
		close(done)
	}()

	<-r.entered // job 0 is mid-step, job 1 queued
	jobs[0].Cancel()
	jobs[1].Cancel()
	r.release <- struct{}{}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fleet did not drain after cancelling both jobs")
	}
	if got := r.spent.Load(); got != 32 {
		t.Errorf("mid-step job spent %d, want exactly the in-flight slice (32)", got)
	}
	if queued.spent != 0 {
		t.Errorf("queued cancelled job was stepped: spent %d", queued.spent)
	}
	for i := range retired {
		if n := retired[i].Load(); n != 1 {
			t.Errorf("job%d OnRetire fired %d times, want 1", i, n)
		}
	}
}

// TestPoolDynamic: jobs submitted over time to a started pool all
// complete; Stop drains in-flight work; Submit after Stop fails.
func TestPoolDynamic(t *testing.T) {
	fl := Fleet{Workers: 4, Slice: 512}
	p := fl.Start()

	var runners []*fakeRunner
	var retired atomic.Int32
	var retiredBy [12]atomic.Int32
	for i := range retiredBy {
		r := &fakeRunner{budget: 5000 + 100*i}
		runners = append(runners, r)
		j := &Job{Name: fmt.Sprintf("dyn%d", i), Runner: r, OnRetire: func(*Job) {
			retiredBy[i].Add(1)
			retired.Add(1)
		}}
		if err := p.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
		if i == 5 {
			time.Sleep(time.Millisecond) // interleave submissions with running work
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for retired.Load() != 12 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/12 jobs retired", retired.Load())
		}
		time.Sleep(time.Millisecond)
	}
	for i, r := range runners {
		if r.spent != r.budget {
			t.Errorf("dyn%d spent %d of %d", i, r.spent, r.budget)
		}
		if r.overlaps.Load() != 0 {
			t.Errorf("dyn%d stepped concurrently", i)
		}
		if n := retiredBy[i].Load(); n != 1 {
			t.Errorf("dyn%d retired %d times, want 1", i, n)
		}
	}
	if d := p.QueueDepth(); d != 0 {
		t.Errorf("drained pool QueueDepth = %d, want 0", d)
	}
	p.Stop()
	if err := p.Submit(&Job{Name: "late", Runner: &fakeRunner{budget: 1}}); err != ErrStopped {
		t.Errorf("Submit after Stop: err = %v, want ErrStopped", err)
	}
	p.Stop() // idempotent
}

// TestPoolReleasesRetiredJobs: the pool keeps no reference to a job
// once it retired, so a long-lived pool never pins finished work.
func TestPoolReleasesRetiredJobs(t *testing.T) {
	p := (&Fleet{Workers: 1, Slice: 64}).Start()
	defer p.Stop()
	const n = 4
	var retired, freed atomic.Int32
	for i := 0; i < n; i++ {
		j := &Job{Name: fmt.Sprintf("rel%d", i), Runner: &fakeRunner{budget: 256}, OnRetire: func(*Job) { retired.Add(1) }}
		runtime.SetFinalizer(j, func(*Job) { freed.Add(1) })
		if err := p.Submit(j); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for retired.Load() != n || freed.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d jobs retired, %d collected", retired.Load(), n, freed.Load())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestPoolStopLeavesStateResumable: Stop finishes the in-flight slice
// and leaves unfinished jobs un-retired.
func TestPoolStopLeavesStateResumable(t *testing.T) {
	fl := Fleet{Workers: 2, Slice: 128}
	p := fl.Start()
	r := newBlockingRunner()
	var retired atomic.Int32
	j := &Job{Name: "inflight", Runner: r, OnRetire: func(*Job) { retired.Add(1) }}
	if err := p.Submit(j); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-r.entered
	stopped := make(chan struct{})
	go func() {
		p.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
		t.Fatal("Stop returned while a step was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	r.release <- struct{}{}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return after the in-flight slice finished")
	}
	if r.spent.Load() != 128 {
		t.Errorf("in-flight job spent %d, want exactly one slice (128)", r.spent.Load())
	}
	if n := retired.Load(); n != 0 {
		t.Errorf("stopped-pool job retired %d times; its state should stay resumable", n)
	}
}

// TestPoolConcurrentSubmitCancel hammers Submit/Cancel/QueueDepth
// from many goroutines — a -race workout for the dynamic pool.
func TestPoolConcurrentSubmitCancel(t *testing.T) {
	fl := Fleet{Workers: 4, Slice: 64}
	p := fl.Start()
	var wg sync.WaitGroup
	var retired atomic.Int32
	const n = 32
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				j := &Job{
					Name:     fmt.Sprintf("g%d-%d", g, i),
					Runner:   &fakeRunner{budget: 1500},
					OnRetire: func(*Job) { retired.Add(1) },
				}
				if err := p.Submit(j); err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				if i%3 == 0 {
					j.Cancel()
				}
				p.QueueDepth()
			}
		}(g)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for retired.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs retired", retired.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
}
