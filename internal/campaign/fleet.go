// Package campaign orchestrates fleets of fuzzing campaigns: M
// resumable campaigns multiplexed over a fixed worker pool through
// the step-driven engine API (core.Campaign, afl.Fuzzer,
// klee.Explorer — anything satisfying Runner).
//
// The fleet is what turns the paper's strictly serial evaluation
// matrix (§5: tools × subjects × repetitions) into a saturating
// workload: each campaign advances in execution slices, workers pull
// the next runnable campaign round-robin, and a campaign that
// finishes frees its slot immediately instead of gating the rest of
// its row. Campaigns are never stepped by two workers at once, and a
// serial pFuzzer campaign is slice-invariant, so multiplexing does
// not perturb the deterministic golden sequences — the property
// internal/eval's fleet tests pin.
//
// Two run modes share one scheduling loop. Fleet.Run takes a fixed
// job list and returns when it drains — the evaluation-matrix shape.
// Fleet.Start returns a Pool whose workers park when idle and accept
// jobs submitted over time — the long-running service shape
// internal/daemon multiplexes tenant campaigns on. In both modes a job
// can be cancelled (Job.Cancel), and retirement — for any reason —
// fires the job's OnRetire hook outside the fleet lock, so
// finalization work (final snapshots, journal closes) never stalls the
// scheduler.
//
// The fleet enforces no execution budget: each campaign carries its
// own (core.Config.MaxExecs), and the daemon accounts tenant budgets
// inside its Runner.
package campaign

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Runner is one resumable campaign: Step advances it by up to n
// subject executions and reports how many were spent and whether the
// campaign can still make progress.
type Runner interface {
	Step(n int) (spent int, more bool)
}

// Job is one campaign under fleet control.
type Job struct {
	// Name labels the job in progress reports.
	Name string
	// Runner is the campaign to advance.
	Runner Runner
	// Slice overrides the fleet's per-step slice for this job
	// (0 = Fleet.Slice). A slice at least the campaign's own budget
	// runs it in one step — how internal/eval schedules the AFL and
	// KLEE baselines, whose mutation stages are not slice-invariant.
	Slice int
	// OnRetire, if non-nil, runs exactly once when the fleet retires
	// the job — its campaign ran out of work or it was cancelled. It
	// is called on the retiring worker's goroutine outside the fleet
	// lock, so it may do IO (cut a final snapshot, close a journal)
	// without stalling other workers.
	OnRetire func(*Job)

	cancel atomic.Bool
}

// Cancel asks the fleet to retire the job: a queued job retires
// without stepping again, a job mid-step finishes the current slice
// first. Safe from any goroutine, idempotent; cancelling a retired
// job is a no-op.
func (j *Job) Cancel() { j.cancel.Store(true) }

// Cancelled reports whether Cancel was called.
func (j *Job) Cancelled() bool { return j.cancel.Load() }

// Progress is one fleet progress notification, delivered after every
// job step.
type Progress struct {
	Finished int           // jobs retired so far
	Total    int           // jobs overall (grows with Pool.Submit)
	Execs    int           // executions spent across the fleet
	Job      string        // the job that just advanced
	JobDone  bool          // whether that step retired it
	Elapsed  time.Duration // wall time since Run started, for display only
}

// Fleet runs jobs over a shared worker pool.
type Fleet struct {
	// Workers is the number of campaigns advanced concurrently
	// (<= 1: one at a time, in strict round-robin).
	Workers int
	// Slice is the default per-step execution slice (0 = 4096).
	// Smaller slices interleave campaigns more fairly; larger ones
	// amortize scheduling overhead.
	Slice int
	// OnProgress, if non-nil, observes every job step. Calls are
	// serialized under the fleet's lock, so the sink needs no
	// synchronization of its own — and must not block: slow IO
	// belongs in Job.OnRetire, which runs outside the lock.
	OnProgress func(Progress)
}

// Run advances every job to completion and returns only when all
// workers have drained. Jobs are queued in the given order and
// re-queued after each step, so with one worker the schedule is a
// deterministic round-robin.
func (fl *Fleet) Run(jobs []*Job) {
	if len(jobs) == 0 {
		return
	}
	workers := fl.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	s := newFleetState(fl, false)
	s.ready = append(s.ready, jobs...)
	s.total = len(jobs)
	s.runWorkers(workers).Wait()
}

// Start launches the fleet in dynamic mode and returns its Pool:
// workers park when no job is ready instead of exiting, and jobs
// arrive over time through Pool.Submit. The fixed-list semantics of
// Run — round-robin re-queueing, OnProgress, OnRetire — are
// identical.
func (fl *Fleet) Start() *Pool {
	s := newFleetState(fl, true)
	workers := fl.Workers
	p := &Pool{s: s}
	p.wg = s.runWorkers(workers)
	return p
}

// Pool is a running dynamic fleet (Fleet.Start).
type Pool struct {
	s  *fleetState
	wg *sync.WaitGroup
}

// ErrStopped is returned by Pool.Submit after Stop.
var ErrStopped = errors.New("campaign: pool is stopped")

// Submit hands a job to the pool. It returns ErrStopped once Stop has
// been called; otherwise the job runs until it finishes or is
// cancelled, and then fires its OnRetire hook.
func (p *Pool) Submit(j *Job) error {
	s := p.s
	s.mu.Lock()
	if s.stopping {
		s.mu.Unlock()
		return ErrStopped
	}
	s.ready = append(s.ready, j)
	s.total++
	s.mu.Unlock()
	s.cond.Broadcast()
	return nil
}

// Stop shuts the pool down gracefully: workers finish the step slice
// they are executing, stop popping new work, and exit; Stop returns
// when all of them have. Jobs still queued or mid-step are NOT
// retired and keep their Runner state, so the caller can snapshot
// them for a later resume. Idempotent.
func (p *Pool) Stop() {
	s := p.s
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	s.cond.Broadcast()
	p.wg.Wait()
}

// QueueDepth reports how many jobs are currently runnable: queued
// ready plus being stepped right now.
func (p *Pool) QueueDepth() int {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ready) + s.active
}

// fleetState is the orchestrator's shared scheduling state: a FIFO
// ready queue plus progress counters, guarded by one mutex (steps do
// the heavy lifting outside it).
type fleetState struct {
	fl      *Fleet
	slice   int
	dynamic bool      // park idle workers instead of exiting (Pool mode)
	started time.Time // Run/Start entry, stamps Progress.Elapsed

	mu       sync.Mutex
	cond     *sync.Cond
	stopping bool // Pool.Stop
	ready    []*Job
	total    int
	active   int // jobs being stepped right now
	finished int
	execs    int // executions spent across the fleet
}

func newFleetState(fl *Fleet, dynamic bool) *fleetState {
	slice := fl.Slice
	if slice <= 0 {
		slice = 4096
	}
	s := &fleetState{fl: fl, slice: slice, dynamic: dynamic, started: time.Now()}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// runWorkers spawns the worker goroutines and returns their
// WaitGroup.
func (s *fleetState) runWorkers(workers int) *sync.WaitGroup {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.work()
		}()
	}
	return &wg
}

// work is one worker's loop: pop the next ready job, step it outside
// the lock, account the result, re-queue or retire.
func (s *fleetState) work() {
	for {
		s.mu.Lock()
		for !s.stopping && len(s.ready) == 0 && (s.dynamic || s.active > 0) {
			s.cond.Wait()
		}
		if s.stopping || len(s.ready) == 0 {
			// Stopping: leave remaining jobs un-retired (their Runners
			// hold their state). Otherwise: no ready work and nobody
			// stepping who could requeue any — the fleet is drained.
			s.mu.Unlock()
			s.cond.Broadcast()
			return
		}
		j := s.ready[0]
		s.ready[0] = nil // the backing array must not pin a retired job
		s.ready = s.ready[1:]

		if !j.cancel.Load() {
			n := s.slice
			if j.Slice > 0 {
				n = j.Slice
			}
			s.active++
			s.mu.Unlock()

			spent, more := j.Runner.Step(n)

			s.mu.Lock()
			s.active--
			s.execs += spent
			if more && spent > 0 && !j.cancel.Load() {
				s.ready = append(s.ready, j)
				s.notify(j, false)
				s.mu.Unlock()
				s.cond.Broadcast()
				continue
			}
		}
		// Finished, cancelled — or spinning (spent == 0 with more):
		// retire rather than loop forever on a stuck campaign. The
		// hook runs outside mu: it may do IO (final snapshot, journal
		// close) and must not stall the scheduler.
		s.finished++
		s.notify(j, true)
		s.mu.Unlock()
		if j.OnRetire != nil {
			j.OnRetire(j)
		}
		s.cond.Broadcast()
	}
}

// notify delivers a progress event. Callers hold mu.
func (s *fleetState) notify(j *Job, done bool) {
	if s.fl.OnProgress != nil {
		s.fl.OnProgress(Progress{
			Finished: s.finished, Total: s.total, Execs: s.execs,
			Job: j.Name, JobDone: done,
			Elapsed: time.Since(s.started),
		})
	}
}
