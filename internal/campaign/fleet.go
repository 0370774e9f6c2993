// Package campaign orchestrates fleets of fuzzing campaigns: M
// resumable campaigns multiplexed over a fixed worker pool through
// the step-driven engine API (core.Campaign, afl.Fuzzer,
// klee.Explorer — anything satisfying Runner), under one optional
// global execution budget.
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
// Two run modes share one scheduling loop. Fleet.Run (and its
// cancellable sibling RunContext) takes a fixed job list and returns
// when it drains — the evaluation-matrix shape. Fleet.Start returns a
// Pool whose workers park when idle and accept jobs submitted over
// time — the long-running service shape internal/daemon multiplexes
// tenant campaigns on. In both modes a job can be cancelled
// (Job.Cancel) or bounded by its own execution budget (Job.MaxExecs),
// and retirement — for any reason — fires the job's OnRetire hook
// outside the fleet lock, so finalization work (final snapshots,
// journal closes) never stalls the scheduler.
package campaign

import (
	"context"
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
	// MaxExecs bounds this job's own executions (0 = none): the fleet
	// never hands its Runner more than the remainder and retires the
	// job when it is spent. This is the per-job half of tenant budget
	// enforcement — the daemon layers cross-campaign tenant accounting
	// on top inside its Runner.
	MaxExecs int
	// OnRetire, if non-nil, runs exactly once when the fleet retires
	// the job — finished, cancelled, budget-exhausted, or cut off by
	// the global budget. It is called on the retiring worker's
	// goroutine outside the fleet lock, so it may do IO (cut a final
	// snapshot, close a journal) without stalling other workers.
	OnRetire func(*Job)

	execs  atomic.Int64
	done   atomic.Bool
	cancel atomic.Bool
}

// Execs returns the executions the fleet observed this job spend. It
// is safe to call from any goroutine while the fleet runs.
func (j *Job) Execs() int { return int(j.execs.Load()) }

// Done reports whether the fleet retired the job: its campaign ran
// out of work, it was cancelled, its own or the global budget cut it
// off. Safe from any goroutine.
func (j *Job) Done() bool { return j.done.Load() }

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
	// MaxTotalExecs bounds executions across all jobs (0 = none).
	// Slices are reserved against it before stepping, so the fleet
	// overshoots by at most each engine's in-flight pair; jobs still
	// unfinished when it runs out are retired where they stand.
	MaxTotalExecs int
	// OnProgress, if non-nil, observes every job step. Calls are
	// serialized under the fleet's lock, so the sink needs no
	// synchronization of its own — and must not block: slow IO
	// belongs in Job.OnRetire, which runs outside the lock.
	OnProgress func(Progress)
}

// Run advances every job to completion (or to the global budget) and
// returns only when all workers have drained. Jobs are queued in the
// given order and re-queued after each step, so with one worker the
// schedule is a deterministic round-robin.
func (fl *Fleet) Run(jobs []*Job) {
	fl.RunContext(context.Background(), jobs)
}

// RunContext is Run with cancellation: when ctx is done, every worker
// finishes the step slice it is currently executing and returns
// without popping new work. Jobs not yet retired keep their state —
// their Runners hold it — and are not marked Done; the caller decides
// whether to snapshot or resume them. RunContext returns when all
// workers have drained, in-flight steps included.
func (fl *Fleet) RunContext(ctx context.Context, jobs []*Job) {
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

	stop := make(chan struct{})
	var watch sync.WaitGroup
	if ctx.Done() != nil {
		watch.Add(1)
		go func() {
			defer watch.Done()
			select {
			case <-ctx.Done():
				s.mu.Lock()
				s.stopping = true
				s.mu.Unlock()
				s.cond.Broadcast()
			case <-stop:
			}
		}()
	}

	s.runWorkers(workers).Wait()
	close(stop)
	watch.Wait()
}

// Start launches the fleet in dynamic mode and returns its Pool:
// workers park when no job is ready instead of exiting, and jobs
// arrive over time through Pool.Submit. The fixed-list semantics of
// Run — round-robin re-queueing, budget reservation, OnProgress —
// are identical.
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
// been called; otherwise the job runs until it finishes, is
// cancelled, or exhausts a budget, and then fires its OnRetire hook.
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

// Execs reports the executions spent across the pool's lifetime.
func (p *Pool) Execs() int {
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.execs
}

// fleetState is the orchestrator's shared scheduling state: a FIFO
// ready queue plus budget accounting, guarded by one mutex (steps do
// the heavy lifting outside it).
type fleetState struct {
	fl      *Fleet
	slice   int
	dynamic bool      // park idle workers instead of exiting (Pool mode)
	started time.Time // Run/Start entry, stamps Progress.Elapsed

	mu       sync.Mutex
	cond     *sync.Cond
	stopping bool // RunContext cancellation or Pool.Stop
	ready    []*Job
	total    int
	active   int // jobs being stepped right now
	finished int
	execs    int // executions spent across the fleet
	reserved int // execs + slices handed to in-flight steps
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

// budgetLeft returns how many executions may still be reserved, or -1
// for unlimited. Callers hold mu.
func (s *fleetState) budgetLeft() int {
	if s.fl.MaxTotalExecs <= 0 {
		return -1
	}
	left := s.fl.MaxTotalExecs - s.reserved
	if left < 0 {
		left = 0
	}
	return left
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

		if j.cancel.Load() {
			s.retireLocked(j)
			s.mu.Unlock()
			s.afterRetire(j)
			s.cond.Broadcast()
			continue
		}

		n := s.slice
		if j.Slice > 0 {
			n = j.Slice
		}
		if j.MaxExecs > 0 {
			left := j.MaxExecs - int(j.execs.Load())
			if left <= 0 {
				// The job's own budget is spent: retire where it stands.
				s.retireLocked(j)
				s.mu.Unlock()
				s.afterRetire(j)
				s.cond.Broadcast()
				continue
			}
			if n > left {
				n = left
			}
		}
		if left := s.budgetLeft(); left >= 0 && n > left {
			n = left
		}
		if n == 0 {
			if s.active > 0 {
				// The budget is only transiently zero: in-flight steps
				// hold reservations they may partly refund. Requeue and
				// wait for one to settle rather than retiring a job
				// that refunded budget could still advance.
				s.ready = append(s.ready, j)
				s.cond.Wait()
				s.mu.Unlock()
				continue
			}
			// Global budget truly exhausted: retire the job where it
			// stands.
			s.retireLocked(j)
			s.mu.Unlock()
			s.afterRetire(j)
			s.cond.Broadcast()
			continue
		}
		s.active++
		s.reserved += n
		s.mu.Unlock()

		spent, more := j.Runner.Step(n)

		s.mu.Lock()
		s.active--
		s.reserved += spent - n // refund the unspent reservation
		s.execs += spent
		j.execs.Add(int64(spent))
		exhausted := j.MaxExecs > 0 && int(j.execs.Load()) >= j.MaxExecs
		if more && spent > 0 && !j.cancel.Load() && !exhausted {
			s.ready = append(s.ready, j)
			s.notify(j, false)
			s.mu.Unlock()
		} else {
			// Finished, cancelled, out of its own budget — or spinning
			// (spent == 0 with more): retire rather than loop forever
			// on a stuck campaign.
			s.retireLocked(j)
			s.mu.Unlock()
			s.afterRetire(j)
		}
		s.cond.Broadcast()
	}
}

// retireLocked marks j done and reports progress. Callers hold mu and
// must call afterRetire(j) once they have released it.
func (s *fleetState) retireLocked(j *Job) {
	j.done.Store(true)
	s.finished++
	s.notify(j, true)
}

// afterRetire fires the job's OnRetire hook. Callers must NOT hold
// mu: the hook may do IO (final snapshot, journal close) and must not
// stall the scheduler.
func (s *fleetState) afterRetire(j *Job) {
	if j.OnRetire != nil {
		j.OnRetire(j)
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
