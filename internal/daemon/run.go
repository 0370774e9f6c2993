package daemon

import (
	"fmt"
	"path/filepath"
	"sync"

	"pfuzzer/internal/campaign"
	"pfuzzer/internal/core"
)

// run is one campaign under daemon management: the engine, its
// journal, its event hub and its fleet job, wrapped behind the
// campaign.Runner interface so the shared pool can advance it. Once
// retired, a run keeps only its final Status (see settle).
//
// Concurrency contract: Step, the core event sink it triggers, and
// the OnRetire finalizer all execute on the fleet worker currently
// owning the job — never two at once — so the engine and the journal
// need no locking of their own. r.mu guards only what crosses
// goroutines: the published Status copy, the settled flag, the first
// internal error, and the release of the engine and job at settling.
// park is called only after the pool has drained its workers.
type run struct {
	srv *Server
	id  string
	dir string
	ten *tenant
	sub Submission

	job *campaign.Job
	hub *hub
	d   *campaign.Durable // engine, journal and shim host

	mu      sync.Mutex
	st      Status
	settled bool  // finalized: retired naturally or parked by Close
	err     error // the journal error Step stopped on; fails the campaign
}

// tenantName normalizes the empty tenant to the default domain.
func tenantName(name string) string {
	if name == "" {
		return "default"
	}
	return name
}

// newRun builds the common shell of a run; the caller attaches the
// engine and stores.
func newRun(s *Server, sp *Spec, ten *tenant) *run {
	r := &run{
		srv: s, id: sp.ID, dir: filepath.Join(s.cfg.Root, sp.ID),
		ten: ten, sub: sp.Submission, hub: newHub(),
	}
	r.st = Status{
		ID: sp.ID, Tenant: tenantName(sp.Tenant), Subject: sp.Subject,
		State: StateRunning, MaxExecs: sp.MaxExecs,
	}
	r.job = &campaign.Job{Name: sp.ID, Runner: r, OnRetire: func(j *campaign.Job) { r.retire(j) }}
	return r
}

// newSettledRun rebuilds the table entry for a campaign that already
// finished in a previous daemon life: the status its spec records,
// the journal left closed (and unlockable by other tools), the event
// stream already over.
func newSettledRun(s *Server, sp *Spec) *run {
	r := &run{
		srv: s, id: sp.ID, dir: filepath.Join(s.cfg.Root, sp.ID),
		sub: sp.Submission, hub: newHub(),
	}
	r.hub.close()
	r.settle(sp)
	s.tenantFor(sp.Tenant).charge(sp.FinalExecs)
	return r
}

// settle turns r into the table entry of the terminal spec sp: the
// status sp records and nothing of the execution. It is the one place
// a settled Status is built — retire applies it to the spec it just
// wrote, newSettledRun to a spec read at start-up — so a campaign
// reports the same status whether it settled in this daemon's life or
// a previous one. The engine and the fleet job are released, so a
// settled campaign costs the daemon the size of its status, not its
// queue and cache tables.
func (r *run) settle(sp *Spec) {
	st := Status{
		ID: sp.ID, Tenant: tenantName(sp.Tenant), Subject: sp.Subject,
		State: sp.State, MaxExecs: sp.MaxExecs, Error: sp.Error,
		Execs: sp.FinalExecs, Valids: sp.FinalValids, ElapsedMS: sp.FinalElapsedMS,
		CoverageBlocks: sp.FinalCoverageBlocks,
		CacheHits:      sp.FinalCacheHits, CacheMisses: sp.FinalCacheMisses,
		DroppedEvents: sp.FinalDroppedEvents,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.settled = true
	r.st = st
	r.d, r.job = nil, nil
}

// durableOptions is how the daemon keeps and runs a campaign: its
// journal in the campaign directory, its submission's shim and
// snapshot cadence, and its events published to the SSE hub.
func (r *run) durableOptions() campaign.DurableOptions {
	return campaign.DurableOptions{
		Journal: journalPath(r.dir), Tool: "pfuzzerd",
		Shim: r.sub.Shim, ShimStderr: r.srv.cfg.Log,
		SnapEvery: r.sub.SnapEvery, Events: r.publish,
	}
}

// engineConfig is the engine configuration a submission asks for.
func (sub *Submission) engineConfig() core.Config {
	return core.Config{Seed: sub.Seed, MaxExecs: sub.MaxExecs, MinePhase: sub.Mine}
}

// publish forwards an engine event to the SSE hub. Runs on the
// stepping worker during Step, after the Durable journaled it.
func (r *run) publish(ev core.Event) {
	if wev, ok := wireEvent(ev); ok {
		r.hub.publish(wev)
	}
}

// freshRun opens a new campaign: journal created, engine built from
// the submission, events wired.
func (s *Server) freshRun(sp *Spec, ten *tenant) (*run, error) {
	r := newRun(s, sp, ten)
	d, err := campaign.NewDurable(sp.Subject, sp.engineConfig(), r.durableOptions())
	if err != nil {
		return nil, err
	}
	r.d = d
	return r, nil
}

// resumeRun reopens a campaign the previous daemon left running from
// its journal — restored from the last snapshot, or rebuilt from the
// submission when the campaign died before its first one.
// Already-spent executions are re-charged to the tenant, since budget
// accounting does not survive the process.
func (s *Server) resumeRun(sp *Spec) (*run, error) {
	// Submit vetted the shim argv, but resume must re-vet: the spec on
	// disk may predate this daemon's (possibly tightened) allowlist,
	// and an unlisted shim must fail the resume loudly, not execute.
	if err := s.cfg.checkShim(sp.Shim); err != nil {
		return nil, err
	}
	ten := s.tenantFor(sp.Tenant)
	r := newRun(s, sp, ten)
	fresh := sp.engineConfig()
	d, err := campaign.ResumeDurable(core.Config{}, &fresh, r.durableOptions())
	if err != nil {
		return nil, err
	}
	if n := d.TruncatedBytes(); n > 0 {
		fmt.Fprintf(s.cfg.Log, "pfuzzerd: recovered %s journal: dropped %d bytes of torn tail\n", sp.ID, n)
	}
	r.d = d
	ten.charge(d.Campaign().Result().Execs)
	r.mu.Lock()
	r.refreshLocked()
	r.mu.Unlock()
	return r, nil
}

// Step implements campaign.Runner: reserve the slice against the
// tenant budget, advance the campaign (journal and snapshot cadence
// included), settle what was actually spent, publish fresh status.
// Returning more=false retires the job, which triggers retire below.
func (r *run) Step(n int) (spent int, more bool) {
	granted := r.ten.reserve(n)
	if granted == 0 {
		return 0, false // tenant budget exhausted: retire where it stands
	}
	spent, more, err := r.d.Step(granted)
	r.ten.settle(granted, spent)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.err = err
		return spent, false // the journal failed; retire fails the campaign
	}
	r.refreshLocked()
	return spent, more
}

// refreshLocked re-derives the published Status from the engine
// result. Callers hold r.mu and own the engine (no concurrent Step).
func (r *run) refreshLocked() {
	res := r.d.Campaign().Result()
	r.st.Execs = res.Execs
	r.st.Valids = len(res.Valids)
	r.st.CoverageBlocks = len(res.Coverage)
	r.st.CacheHits = res.CacheHits
	r.st.CacheMisses = res.CacheMisses
	r.st.ElapsedMS = res.Elapsed.Milliseconds()
	r.st.DroppedEvents = r.hub.droppedCount()
}

// status returns the last published status copy.
func (r *run) status() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// retire finalizes a campaign the fleet has retired: the Durable
// closed (final snapshot, journal lock released, shim children
// killed), terminal state and every final counter persisted, the
// entry settled from that spec (dropping the engine), the event
// stream closed with a terminal event. Runs on the retiring worker's goroutine, outside
// the fleet lock.
func (r *run) retire(j *campaign.Job) {
	r.mu.Lock()
	if r.settled {
		r.mu.Unlock()
		return
	}
	r.settled = true
	err := r.err
	r.mu.Unlock()

	state, msg := StateDone, ""
	switch {
	case err != nil:
		state, msg = StateFailed, err.Error()
	case j.Cancelled():
		state = StateCancelled
	}
	if cerr := r.d.Close(); cerr != nil && state != StateFailed {
		state, msg = StateFailed, cerr.Error()
	}

	res := r.d.Campaign().Result()
	sp := &Spec{
		ID: r.id, Submission: r.sub, State: state, Error: msg,
		FinalExecs: res.Execs, FinalValids: len(res.Valids),
		FinalElapsedMS:      res.Elapsed.Milliseconds(),
		FinalCoverageBlocks: len(res.Coverage),
		FinalCacheHits:      res.CacheHits, FinalCacheMisses: res.CacheMisses,
		FinalDroppedEvents: r.hub.droppedCount(),
	}
	if werr := writeSpec(r.dir, sp); werr != nil {
		// The campaign state is only in memory now; the next restart
		// will re-resume it from the (intact) journal instead.
		fmt.Fprintf(r.srv.cfg.Log, "pfuzzerd: persisting %s terminal state: %v\n", r.id, werr)
	}
	r.settle(sp)
	r.hub.publish(WireEvent{Kind: "retired", Execs: res.Execs, State: state})
	r.hub.close()
}

// park is the graceful-shutdown finalizer for a campaign the pool
// stopped mid-flight: close the Durable (final snapshot, journal and
// shim host closed), leave the spec in the running state so the next
// daemon resumes it. Called only after Pool.Stop drained the workers.
func (r *run) park() error {
	r.mu.Lock()
	if r.settled {
		r.mu.Unlock()
		return nil
	}
	r.settled = true
	r.mu.Unlock()

	err := r.d.Close()
	r.hub.close()
	return err
}
