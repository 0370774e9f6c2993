package campaign

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"pfuzzer/internal/core"
	"pfuzzer/internal/corpus"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/shim"
	"pfuzzer/internal/subject"
)

// journal is the part of *corpus.Store a Durable writes through.
type journal interface {
	AppendValid(exec int, input []byte) error
	AppendSnapshot(blob []byte) error
	Close() error
}

// DurableOptions configures how a Durable campaign is kept and run.
type DurableOptions struct {
	// Journal is the corpus journal path (DESIGN.md §8.2). A fresh
	// campaign with no path keeps no journal; a resume needs one.
	Journal string
	// Tool names the program in a new journal's metadata.
	Tool string
	// Shim, when non-empty, executes the subject out of process
	// through this argv (binary + args) speaking the shim protocol
	// (DESIGN.md §14).
	Shim []string
	// ShimStderr receives the shim children's stderr (nil = os.Stderr).
	ShimStderr io.Writer
	// SnapEvery is the snapshot cadence: Step cuts a snapshot once at
	// least this many executions ran since the last cut (<= 0: after
	// every Step).
	SnapEvery int
	// Events, if non-nil, receives the engine's event stream; a valid
	// arrives after it was appended to the journal.
	Events func(core.Event)
}

// Durable is one campaign's crash-safe lifecycle: the engine, its
// subject (optionally behind a shim host) and its journal. Every valid
// is journaled as the engine emits it, Step cuts a snapshot on the
// SnapEvery cadence and Close cuts a final one, so a campaign killed
// at any point resumes from its journal (ResumeDurable) and converges
// to the uninterrupted run's corpus.
//
// A Durable has a single owner: Step, the event sink it drives and
// Close must not run concurrently.
type Durable struct {
	*sink
	camp  *core.Campaign
	prog  subject.Program
	entry registry.Entry
	host  *shim.Host

	snapEvery int
	sinceSnap int // executions since the last cut
	truncated int
}

// sink is the engine's event sink: a valid goes to the journal first
// (the corpus of record), then every event to the caller. It is apart
// from the Durable so the engine and the Durable form no reference
// cycle, which would keep a finalizer set on the engine from ever
// running.
type sink struct {
	store  journal // nil: no journal kept
	events func(core.Event)
	err    error // first journal failure; no snapshot is cut after it
}

func (k *sink) record(ev core.Event) {
	if ev.Kind == core.EventValid && k.store != nil {
		if err := k.store.AppendValid(ev.Execs, ev.Input); err != nil && k.err == nil {
			k.err = err
		}
	}
	if k.events != nil {
		k.events(ev)
	}
}

// NewDurable opens a fresh campaign on the named subject. The Durable
// sets cfg.Events (to its sink, which forwards to opts.Events) and
// cfg.MineLexer (to the subject's). With opts.Journal set, the
// journal is created, replacing any previous one.
func NewDurable(subjectName string, cfg core.Config, opts DurableOptions) (*Durable, error) {
	d, err := newDurable(subjectName, opts)
	if err != nil {
		return nil, err
	}
	if opts.Journal != "" {
		// Through a local: a failed Create's nil *Store in the journal
		// field would be a non-nil interface that Close dereferences.
		store, err := corpus.Create(opts.Journal, corpus.Meta{
			Subject: d.entry.Name, Tool: opts.Tool, Seed: cfg.Seed, MaxExecs: cfg.MaxExecs,
		})
		if err != nil {
			d.Close() //nolint:errcheck // releasing the shim host; nothing ran
			return nil, err
		}
		d.store = store
	}
	d.camp = core.NewCampaign(d.prog, d.wire(cfg))
	return d, nil
}

// ResumeDurable reopens the journal at opts.Journal — recovering a
// torn tail — and restores the engine from its last snapshot, with
// over's Restore overrides (core.Restore). A journal that holds no
// snapshot (the campaign died before its first cut) starts the engine
// over from fresh, or fails when fresh is nil: the replayed prefix
// re-journals the same valids, which the journal's dedup collapses,
// so the corpus still converges.
func ResumeDurable(over core.Config, fresh *core.Config, opts DurableOptions) (*Durable, error) {
	store, err := corpus.Open(opts.Journal)
	if err != nil {
		return nil, err
	}
	d, err := newDurable(store.Meta().Subject, opts)
	if err != nil {
		store.Close() //nolint:errcheck // releasing the lock; nothing was appended
		return nil, err
	}
	d.store, d.truncated = store, store.TruncatedBytes()
	switch blob := store.Snapshot(); {
	case blob != nil:
		var snap *core.Snapshot
		if snap, err = core.UnmarshalSnapshot(blob); err == nil {
			d.camp, err = core.Restore(d.prog, d.wire(over), snap)
		}
	case fresh != nil:
		d.camp = core.NewCampaign(d.prog, d.wire(*fresh))
	default:
		err = fmt.Errorf("journal %s holds no snapshot to resume from", opts.Journal)
	}
	if err != nil {
		d.Close() //nolint:errcheck // nothing ran, so Close cuts no snapshot
		return nil, err
	}
	return d, nil
}

// newDurable looks the subject up and, when opts.Shim asks for it,
// moves its execution behind a shim host.
func newDurable(name string, opts DurableOptions) (*Durable, error) {
	entry, ok := registry.Get(name)
	if !ok {
		return nil, fmt.Errorf("unknown subject %q (have %s)", name, strings.Join(registry.Names(), ", "))
	}
	d := &Durable{sink: &sink{events: opts.Events}, snapEvery: opts.SnapEvery}
	if len(opts.Shim) > 0 {
		if opts.Shim[0] == "" {
			return nil, errors.New("campaign: empty shim binary path")
		}
		host, err := shim.NewHost(
			shim.CmdLauncher{Path: opts.Shim[0], Args: opts.Shim[1:], Stderr: opts.ShimStderr},
			shim.Options{Subject: entry.Name})
		if err != nil {
			return nil, err
		}
		d.host, entry = host, shim.WrapEntry(entry, host)
	}
	d.entry, d.prog = entry, entry.New()
	return d, nil
}

// wire points a campaign config at the Durable's event sink and the
// subject's mining lexer.
func (d *Durable) wire(cfg core.Config) core.Config {
	cfg.Events, cfg.MineLexer = d.record, d.entry.Lexer
	return cfg
}

// Step advances the engine by up to n executions and cuts a snapshot
// once SnapEvery executions ran since the last cut. err is the first
// journal failure of the campaign's life, if any: the caller should
// stop stepping and Close.
func (d *Durable) Step(n int) (spent int, more bool, err error) {
	spent, more = d.camp.Step(n)
	d.sinceSnap += spent
	if d.err == nil && d.store != nil && d.sinceSnap >= d.snapEvery {
		d.cut()
	}
	return spent, more, d.err
}

// cut publishes the engine's state into the journal's snapshot
// sidecar. A failed cut is recorded like a failed append.
func (d *Durable) cut() error {
	blob, err := d.camp.Snapshot().Marshal()
	if err == nil {
		err = d.store.AppendSnapshot(blob)
	}
	if err != nil {
		d.err = err
		return err
	}
	d.sinceSnap = 0
	return nil
}

// Close cuts a final snapshot — unless no execution ran since the
// last cut, or the journal has failed: a snapshot past a lost valid
// would claim a corpus the journal does not hold — then closes the
// journal (releasing its lock) and kills the shim children. It
// returns the errors of this teardown, not the one Step reported.
// Close is idempotent; the campaign's Result stays readable.
func (d *Durable) Close() error {
	var errs []error
	if d.store != nil {
		if d.err == nil && d.sinceSnap > 0 {
			errs = append(errs, d.cut())
		}
		errs = append(errs, d.store.Close())
		d.store = nil
	}
	if d.host != nil {
		d.host.Close()
	}
	return errors.Join(errs...)
}

// Campaign returns the engine.
func (d *Durable) Campaign() *core.Campaign { return d.camp }

// Entry returns the subject's registry entry, its execution vehicle
// swapped for the shim host's when one is in use.
func (d *Durable) Entry() registry.Entry { return d.entry }

// Program returns the subject the engine executes.
func (d *Durable) Program() subject.Program { return d.prog }

// Host returns the shim host, or nil when the subject runs in
// process.
func (d *Durable) Host() *shim.Host { return d.host }

// TruncatedBytes reports how many bytes of torn journal tail the
// resume dropped.
func (d *Durable) TruncatedBytes() int { return d.truncated }
