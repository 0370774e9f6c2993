package daemon

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"pfuzzer/internal/campaign"
	"pfuzzer/internal/core"
	"pfuzzer/internal/corpus"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/shim"
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

	job   *campaign.Job
	hub   *hub
	camp  *core.Campaign
	store *corpus.Store
	host  *shim.Host

	sinceSnap int // execs since the last snapshot; owner-goroutine only

	mu      sync.Mutex
	st      Status
	settled bool  // finalized: retired naturally or parked by Close
	err     error // first journal/engine error; fails the campaign
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
	r.camp, r.job = nil, nil
}

// wrapShim swaps the entry's execution vehicle for an out-of-process
// host when the submission asks for one.
func (r *run) wrapShim(entry registry.Entry) (registry.Entry, error) {
	if len(r.sub.Shim) == 0 {
		return entry, nil
	}
	if r.sub.Shim[0] == "" {
		return entry, errors.New("daemon: empty shim binary path")
	}
	// Submit already vetted the argv, but resume must re-vet: the spec
	// on disk may predate this daemon's (possibly tightened) allowlist,
	// and an unlisted shim must fail the resume loudly, not execute.
	if err := r.srv.cfg.checkShim(r.sub.Shim); err != nil {
		return entry, err
	}
	host, err := shim.NewHost(
		shim.CmdLauncher{Path: r.sub.Shim[0], Args: r.sub.Shim[1:], Stderr: r.srv.cfg.Log},
		shim.Options{Subject: entry.Name})
	if err != nil {
		return entry, err
	}
	r.host = host
	return shim.WrapEntry(entry, host), nil
}

// coreEvents is the engine's event sink: valids go to the journal
// first (the corpus of record), then everything forwardable goes to
// the SSE hub. Runs on the stepping worker during camp.Step.
func (r *run) coreEvents(ev core.Event) {
	if ev.Kind == core.EventValid && r.store != nil {
		if err := r.store.AppendValid(ev.Execs, ev.Input); err != nil {
			r.setErr(err)
		}
	}
	if wev, ok := wireEvent(ev); ok {
		r.hub.publish(wev)
	}
}

// setErr records the first internal error; the next Step boundary
// fails the campaign with it.
func (r *run) setErr(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// freshRun opens a new campaign: journal created, engine built from
// the submission, events wired.
func (s *Server) freshRun(sp *Spec, entry registry.Entry, ten *tenant, dir string) (*run, error) {
	r := newRun(s, sp, ten)
	entry, err := r.wrapShim(entry)
	if err != nil {
		return nil, err
	}
	store, err := corpus.Create(journalPath(dir), corpus.Meta{
		Subject: entry.Name, Tool: "pfuzzerd", Seed: sp.Seed, MaxExecs: sp.MaxExecs,
	})
	if err != nil {
		r.closeHost()
		return nil, err
	}
	r.store = store
	cfg := core.Config{
		Seed: sp.Seed, MaxExecs: sp.MaxExecs,
		MinePhase: sp.Mine, MineLexer: entry.Lexer, Events: r.coreEvents,
	}
	r.camp = core.NewCampaign(entry.New(), cfg)
	return r, nil
}

// resumeRun reopens a campaign the previous daemon left running:
// journal recovery (torn tails dropped), engine restored from the
// last snapshot — or rebuilt from scratch when the campaign died
// before its first snapshot, which the journal's dedup-by-input
// convergence makes equivalent. Already-spent executions are
// re-charged to the tenant, since budget accounting does not survive
// the process.
func (s *Server) resumeRun(sp *Spec) (*run, error) {
	entry, ok := registry.Get(sp.Subject)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSubject, sp.Subject)
	}
	ten := s.tenantFor(sp.Tenant)
	r := newRun(s, sp, ten)
	entry, err := r.wrapShim(entry)
	if err != nil {
		return nil, err
	}
	store, err := corpus.Open(journalPath(r.dir))
	if err != nil {
		r.closeHost()
		return nil, err
	}
	r.store = store
	if n := store.TruncatedBytes(); n > 0 {
		fmt.Fprintf(s.cfg.Log, "pfuzzerd: recovered %s journal: dropped %d bytes of torn tail\n", sp.ID, n)
	}
	if blob := store.Snapshot(); blob != nil {
		snap, err := core.UnmarshalSnapshot(blob)
		if err != nil {
			r.closeStores()
			return nil, err
		}
		over := core.Config{Events: r.coreEvents, MineLexer: entry.Lexer}
		r.camp, err = core.Restore(entry.New(), over, snap)
		if err != nil {
			r.closeStores()
			return nil, err
		}
	} else {
		// Killed before the first snapshot: start the engine over. The
		// replayed prefix re-journals the same valids, which dedup
		// collapses, so the corpus still converges to the uninterrupted
		// run's.
		cfg := core.Config{
			Seed: sp.Seed, MaxExecs: sp.MaxExecs,
			MinePhase: sp.Mine, MineLexer: entry.Lexer, Events: r.coreEvents,
		}
		r.camp = core.NewCampaign(entry.New(), cfg)
	}
	ten.charge(r.camp.Result().Execs)
	r.mu.Lock()
	r.refreshLocked()
	r.mu.Unlock()
	return r, nil
}

// Step implements campaign.Runner: reserve the slice against the
// tenant budget, advance the engine, settle what was actually spent,
// snapshot on cadence, publish fresh status. Returning more=false
// retires the job, which triggers retire below.
func (r *run) Step(n int) (spent int, more bool) {
	granted := r.ten.reserve(n)
	if granted == 0 {
		return 0, false // tenant budget exhausted: retire where it stands
	}
	spent, more = r.camp.Step(granted)
	r.ten.settle(granted, spent)

	r.mu.Lock()
	err := r.err
	r.mu.Unlock()
	if err != nil {
		return spent, false // a journal append failed mid-step; fail the campaign
	}

	r.sinceSnap += spent
	if r.sinceSnap >= r.sub.SnapEvery {
		// The retire hook cuts the final snapshot, so the cadence only
		// matters mid-flight.
		if err := r.cutSnapshot(); err != nil {
			r.setErr(err)
			return spent, false
		}
		r.sinceSnap = 0
	}
	r.mu.Lock()
	r.refreshLocked()
	r.mu.Unlock()
	return spent, more
}

// cutSnapshot publishes the engine's current state into the journal
// sidecar. Owner goroutine only (between Steps, or after the pool
// drained).
func (r *run) cutSnapshot() error {
	blob, err := r.camp.Snapshot().Marshal()
	if err != nil {
		return err
	}
	return r.store.AppendSnapshot(blob)
}

// refreshLocked re-derives the published Status from the engine
// result. Callers hold r.mu and own the engine (no concurrent Step).
func (r *run) refreshLocked() {
	res := r.camp.Result()
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

// retire finalizes a campaign the fleet has retired: final snapshot,
// journal closed (releasing its lock), shim children killed, terminal
// state and every final counter persisted, the entry settled from
// that spec (dropping the engine), the event stream closed with a
// terminal event. Runs on the retiring worker's goroutine, outside
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
	if serr := r.cutSnapshot(); serr != nil && state != StateFailed {
		state, msg = StateFailed, serr.Error()
	}
	if cerr := r.closeStores(); cerr != nil && state != StateFailed {
		state, msg = StateFailed, cerr.Error()
	}

	res := r.camp.Result()
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
// stopped mid-flight: cut a final snapshot, close the journal and the
// shim host, leave the spec in the running state so the next daemon
// resumes it. Called only after Pool.Stop drained the workers.
func (r *run) park() error {
	r.mu.Lock()
	if r.settled {
		r.mu.Unlock()
		return nil
	}
	r.settled = true
	r.mu.Unlock()

	var errs []error
	if err := r.cutSnapshot(); err != nil {
		errs = append(errs, err)
	}
	if err := r.closeStores(); err != nil {
		errs = append(errs, err)
	}
	r.hub.close()
	return errors.Join(errs...)
}

// closeHost kills the run's shim children, if any.
func (r *run) closeHost() {
	if r.host != nil {
		r.host.Close()
		r.host = nil
	}
}

// closeStores closes the journal (releasing its advisory lock) and
// the shim host.
func (r *run) closeStores() error {
	var err error
	if r.store != nil {
		err = r.store.Close()
		r.store = nil
	}
	r.closeHost()
	return err
}
