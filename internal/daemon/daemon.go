// Package daemon is the fuzzing-as-a-service layer: a long-running
// server that accepts campaign submissions, multiplexes many tenant
// campaigns over one campaign.Fleet worker pool under per-tenant
// execution budgets, keeps every campaign durable through a
// campaign.Durable (journal + periodic snapshots, one directory per
// campaign), streams typed engine events to subscribers, and exposes
// Prometheus-style metrics (DESIGN.md §15).
//
// Durability is the load-bearing property: every valid input is
// journaled as the engine emits it and an engine snapshot is cut
// every SnapEvery executions, so a daemon killed at any point — power
// cut, kill -9 — restarts, rebuilds its campaign table from the
// per-campaign spec files, and resumes every in-flight campaign from
// its last snapshot. Campaign engines are deterministic under their
// seed, and the journal deduplicates by input, so a resumed
// campaign's corpus converges to exactly the corpus an uninterrupted
// run would have produced at the same budget (the crash-recovery e2e
// test pins this). The corpus layer's advisory journal locks keep a
// concurrent `pfuzzer -resume` on a still-owned directory from
// corrupting the journal under the daemon.
package daemon

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pfuzzer/internal/campaign"
	"pfuzzer/internal/registry"
)

// Sentinel errors the HTTP layer classifies with errors.Is; handlers
// must never match on error text.
var (
	// ErrUnknownSubject rejects a submission naming a subject the
	// registry does not know.
	ErrUnknownSubject = errors.New("daemon: unknown subject")
	// ErrBudgetExhausted rejects a submission from a tenant whose
	// execution budget is spent.
	ErrBudgetExhausted = errors.New("daemon: no execution budget left")
	// ErrNoCampaign reports a campaign ID absent from the table.
	ErrNoCampaign = errors.New("daemon: no such campaign")
	// ErrShuttingDown rejects submissions once Close has begun.
	ErrShuttingDown = errors.New("daemon: server is shutting down")
	// ErrShimDenied rejects a submission whose shim argv names a
	// binary the daemon operator has not allowlisted.
	ErrShimDenied = errors.New("daemon: shim binary not allowlisted")
)

// Config configures a daemon Server.
type Config struct {
	// Root is the state directory: one subdirectory per campaign
	// holding its corpus journal, snapshot sidecar and spec. Created
	// if missing. Required.
	Root string
	// Workers is the fleet worker count — how many campaigns advance
	// concurrently (0 = 2).
	Workers int
	// Slice is the per-step execution slice campaigns are advanced by
	// (0 = the fleet default, 4096). Smaller slices interleave
	// tenants more fairly and tighten cancellation latency.
	Slice int
	// SnapEvery is the default execution count between journal
	// snapshots (0 = 10000); a campaign can override it at
	// submission. A kill loses at most this much work per campaign.
	SnapEvery int
	// TenantBudget is the default total execution budget per tenant
	// across all its campaigns (0 = unlimited).
	TenantBudget int
	// AllowShims is the allowlist of shim binary paths submissions may
	// name in their shim argv. The shim field is an arbitrary command
	// the daemon executes, so with an empty allowlist every shim
	// submission is rejected (ErrShimDenied) — the operator must opt
	// each binary in. The allowlist also gates resume: a persisted
	// campaign whose shim is no longer allowlisted fails loudly
	// instead of executing it.
	AllowShims []string
	// Log receives operational messages (nil = os.Stderr).
	Log io.Writer
}

// checkShim validates a submission's shim argv against the
// allowlist. Paths are compared cleaned, so /usr/bin//shim matches an
// allowlisted /usr/bin/shim; anything else is denied — a mismatch can
// only refuse execution, never grant it.
func (c *Config) checkShim(argv []string) error {
	if len(argv) == 0 {
		return nil
	}
	bin := filepath.Clean(argv[0])
	for _, a := range c.AllowShims {
		if filepath.Clean(a) == bin {
			return nil
		}
	}
	return fmt.Errorf("%w: %q (operator must pass -allow-shim)", ErrShimDenied, argv[0])
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.SnapEvery <= 0 {
		c.SnapEvery = 10000
	}
	if c.Log == nil {
		c.Log = os.Stderr
	}
}

// Status is one campaign's live status as reported by the API.
type Status struct {
	ID             string `json:"id"`
	Tenant         string `json:"tenant"`
	Subject        string `json:"subject"`
	State          string `json:"state"`
	Execs          int    `json:"execs"`
	MaxExecs       int    `json:"max_execs"`
	Valids         int    `json:"valids"`
	CoverageBlocks int    `json:"coverage_blocks"`
	CacheHits      int    `json:"cache_hits"`
	CacheMisses    int    `json:"cache_misses"`
	ElapsedMS      int64  `json:"elapsed_ms"` // active engine time, the execs/sec denominator
	DroppedEvents  int    `json:"dropped_events,omitempty"`
	Error          string `json:"error,omitempty"`
}

// tenant is one budget domain. reserve/settle bracket each step the
// way the fleet brackets its global budget: the slice is reserved
// before stepping and the unspent part refunded after, so concurrent
// campaigns of one tenant can never jointly overshoot the budget by
// more than the engines' documented in-flight overshoot.
type tenant struct {
	name   string
	budget int // 0 = unlimited

	mu       sync.Mutex
	spent    int
	reserved int // spent + in-flight reservations
}

// reserve grants up to n executions against the budget.
func (t *tenant) reserve(n int) int {
	if t.budget <= 0 {
		return n
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	left := t.budget - t.reserved
	if left <= 0 {
		return 0
	}
	if n > left {
		n = left
	}
	t.reserved += n
	return n
}

// settle records what a reserve-granted step actually spent.
func (t *tenant) settle(granted, spent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spent += spent
	if t.budget > 0 {
		t.reserved += spent - granted
	}
}

// charge records spending outside a reservation — the executions a
// resumed campaign had already run before the restart.
func (t *tenant) charge(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spent += n
	if t.budget > 0 {
		t.reserved += n
	}
}

// remaining returns the unreserved budget, or -1 for unlimited.
func (t *tenant) remaining() int {
	if t.budget <= 0 {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	left := t.budget - t.reserved
	if left < 0 {
		left = 0
	}
	return left
}

// Server is a running daemon: the campaign table, the tenant budget
// table, and the fleet pool advancing everything.
type Server struct {
	cfg     Config
	pool    *campaign.Pool
	started time.Time

	mu      sync.Mutex
	camps   map[string]*run
	order   []string // campaign IDs in submission order
	tenants map[string]*tenant
	seq     int
	closed  bool
}

// New opens (or creates) the state directory, resumes every campaign
// the previous daemon left running, and starts the fleet pool.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	if cfg.Root == "" {
		return nil, errors.New("daemon: Config.Root is required")
	}
	if err := os.MkdirAll(cfg.Root, 0o755); err != nil {
		return nil, fmt.Errorf("daemon: creating root: %w", err)
	}
	specs, maxSeq, err := scanSpecs(cfg.Root)
	if err != nil {
		return nil, err
	}
	fl := &campaign.Fleet{Workers: cfg.Workers, Slice: cfg.Slice}
	s := &Server{
		cfg:     cfg,
		pool:    fl.Start(),
		started: time.Now(),
		camps:   make(map[string]*run),
		tenants: make(map[string]*tenant),
		seq:     maxSeq,
	}
	for _, sp := range specs {
		var err error
		switch sp.State {
		case StateDone, StateCancelled, StateFailed:
			s.adopt(newSettledRun(s, sp))
			continue
		case StateRunning:
			var r *run
			if r, err = s.resumeRun(sp); err == nil {
				s.adopt(r)
				if err := s.pool.Submit(r.job); err != nil {
					return nil, err // impossible: the pool was just started
				}
				fmt.Fprintf(cfg.Log, "pfuzzerd: resumed %s (%s/%s) at %d execs\n",
					sp.ID, sp.Tenant, sp.Subject, r.status().Execs)
				continue
			}
		default:
			err = fmt.Errorf("daemon: unknown campaign state %q", sp.State)
		}
		// A campaign that cannot be resumed is failed loudly, not
		// silently dropped: the spec records why, the journal stays on
		// disk for inspection.
		fmt.Fprintf(cfg.Log, "pfuzzerd: resuming %s: %v\n", sp.ID, err)
		sp.State = StateFailed
		sp.Error = err.Error()
		if werr := writeSpec(filepath.Join(cfg.Root, sp.ID), sp); werr != nil {
			fmt.Fprintf(cfg.Log, "pfuzzerd: recording %s failure: %v\n", sp.ID, werr)
		}
		s.adopt(newSettledRun(s, sp))
	}
	return s, nil
}

// adopt registers a run in the campaign table. Callers must not hold
// s.mu.
func (s *Server) adopt(r *run) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.camps[r.id] = r
	s.order = append(s.order, r.id)
}

// tenantFor returns (creating if needed) the tenant record. Callers
// must not hold s.mu.
func (s *Server) tenantFor(name string) *tenant {
	if name == "" {
		name = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil {
		t = &tenant{name: name, budget: s.cfg.TenantBudget}
		s.tenants[name] = t
	}
	return t
}

// Submit validates a submission, persists its spec, opens its journal
// and hands the campaign to the fleet. The returned Status is the
// campaign's initial state.
func (s *Server) Submit(sub Submission) (Status, error) {
	if sub.Tenant == "" {
		sub.Tenant = "default"
	}
	sub.Workers = 0 // decoded and ignored; see Submission.Workers
	entry, ok := registry.Get(sub.Subject)
	if !ok {
		return Status{}, fmt.Errorf("%w: %q", ErrUnknownSubject, sub.Subject)
	}
	if err := s.cfg.checkShim(sub.Shim); err != nil {
		return Status{}, err
	}
	if sub.MaxExecs <= 0 {
		sub.MaxExecs = 100000
	}
	if sub.SnapEvery <= 0 {
		sub.SnapEvery = s.cfg.SnapEvery
	}
	ten := s.tenantFor(sub.Tenant)
	if ten.remaining() == 0 {
		return Status{}, fmt.Errorf("tenant %q: %w", sub.Tenant, ErrBudgetExhausted)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Status{}, ErrShuttingDown
	}
	s.seq++
	id := formatID(s.seq)
	s.mu.Unlock()

	sp := &Spec{ID: id, Submission: sub, State: StateRunning}
	dir := filepath.Join(s.cfg.Root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Status{}, fmt.Errorf("daemon: creating campaign dir: %w", err)
	}
	r, err := s.freshRun(sp, entry, ten, dir)
	if err != nil {
		os.RemoveAll(dir) //nolint:errcheck // best-effort rollback of the empty dir
		return Status{}, err
	}
	// The spec is published only after the journal opened: a crash in
	// between leaves a spec-less directory the scanner ignores.
	if err := writeSpec(dir, sp); err != nil {
		r.d.Close()       //nolint:errcheck // rollback; nothing ran
		os.RemoveAll(dir) //nolint:errcheck // best-effort rollback
		return Status{}, err
	}
	// Adoption and pool handoff happen in one critical section with a
	// re-check of closed: Close sets closed and snapshots the table
	// under this same lock and only stops the pool after releasing it,
	// so a run adopted here is always either parked by Close or
	// accepted by a still-running pool — never adopted with an open
	// journal while its submitter is told the submission failed.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		r.d.Close()       //nolint:errcheck // rollback; nothing ran
		os.RemoveAll(dir) //nolint:errcheck // best-effort rollback
		return Status{}, ErrShuttingDown
	}
	s.camps[r.id] = r
	s.order = append(s.order, r.id)
	if err := s.pool.Submit(r.job); err != nil {
		delete(s.camps, r.id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		r.d.Close()       //nolint:errcheck // rollback; nothing ran
		os.RemoveAll(dir) //nolint:errcheck // best-effort rollback
		return Status{}, err
	}
	s.mu.Unlock()
	return r.status(), nil
}

// Cancel asks a campaign to stop: the current step slice finishes, a
// final snapshot lands in its journal, and its state becomes
// cancelled.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	r := s.camps[id]
	s.mu.Unlock()
	if r == nil {
		return fmt.Errorf("%w: %s", ErrNoCampaign, id)
	}
	// A settled entry has released its job; settling flips settled
	// and drops the job under r.mu, so an unsettled run still has one.
	r.mu.Lock()
	settled, state, job := r.settled, r.st.State, r.job
	r.mu.Unlock()
	if settled {
		return fmt.Errorf("daemon: campaign %s is already %s", id, state)
	}
	job.Cancel()
	return nil
}

// Campaign returns one campaign's status.
func (s *Server) Campaign(id string) (Status, bool) {
	s.mu.Lock()
	r := s.camps[id]
	s.mu.Unlock()
	if r == nil {
		return Status{}, false
	}
	return r.status(), true
}

// Campaigns returns every campaign's status in submission order.
func (s *Server) Campaigns() []Status {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if st, ok := s.Campaign(id); ok {
			out = append(out, st)
		}
	}
	return out
}

// subscribe attaches to a campaign's event stream.
func (s *Server) subscribe(id string) (<-chan []byte, func(), bool) {
	s.mu.Lock()
	r := s.camps[id]
	s.mu.Unlock()
	if r == nil {
		return nil, nil, false
	}
	ch, cancel := r.hub.subscribe()
	return ch, cancel, true
}

// QueueDepth reports how many campaigns are currently runnable.
func (s *Server) QueueDepth() int { return s.pool.QueueDepth() }

// tenantsSorted snapshots the tenant table for metrics.
func (s *Server) tenantsSorted() []*tenant {
	s.mu.Lock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Close shuts the daemon down gracefully: the fleet finishes the step
// slices in flight and stops, then every still-live campaign cuts a
// final snapshot and closes its journal with its spec left in the
// running state — the next daemon resumes them. Campaigns that
// retired naturally were already finalized by their OnRetire hooks.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()

	s.pool.Stop()

	var errs []error
	for _, id := range ids {
		s.mu.Lock()
		r := s.camps[id]
		s.mu.Unlock()
		if err := r.park(); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", id, err))
		}
	}
	return errors.Join(errs...)
}
