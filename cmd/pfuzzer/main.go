// Command pfuzzer runs parser-directed fuzzing on one of the built-in
// subjects and streams the valid inputs it synthesizes, the way the
// paper's prototype prints every accepted input that covers new code.
//
// Usage:
//
//	pfuzzer -subject cjson [-execs 100000] [-seed 1] [-quiet]
//	        [-cache=false] [-mine] [-mine-budget n] [-mine-tokens n]
//	        [-mine-cadence n] [-out file] [-resume file] [-snap-every n] [-mine-from file] [-shim bin]
//	pfuzzer -list
//
// Subjects: ini, csv, cjson, tinyc, mjs, expr, paren, urlp, sexpr,
// httpreq, dotg (-list prints them with block counts and
// token-inventory sizes).
//
// Campaigns are deterministic under -seed. -mine enables the hybrid
// campaign (paper §7.4): a token grammar is mined from the valid
// corpus and used to generate longer candidates, which are validated
// through the same engine and fed back into the miner.
//
// -out journals the campaign into a persistent corpus store
// (internal/corpus): every valid input as it is found, plus an engine
// snapshot every -snap-every executions. A campaign killed mid-run
// resumes with -resume from the journal's last snapshot; the resumed
// campaign re-finds exactly the valids lost after that snapshot, so
// the journal converges to the uninterrupted run's corpus at the same
// total budget. -mine-from seeds the -mine grammar from a previously
// saved corpus without resuming it — the §7.4 chain (fuzz, mine,
// generate) across process restarts.
//
// -shim drives the subject out of process through a child binary
// speaking the shim protocol (DESIGN.md §14) — cmd/pshim serves every
// built-in subject that way. Child crashes and hangs become
// recoverable per-execution outcomes instead of campaign aborts; the
// summary reports what was lost.
//
// SIGINT or SIGTERM interrupts the campaign gracefully: the current
// slice finishes, a final snapshot lands in the journal, the summary
// prints, shim children are killed, and pfuzzer exits 130. A second
// signal forces immediate exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pfuzzer/internal/core"
	"pfuzzer/internal/corpus"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/shim"
	"pfuzzer/internal/subject"
)

func main() {
	var (
		subjectName = flag.String("subject", "expr", "subject to fuzz")
		execs       = flag.Int("execs", 100000, "execution budget")
		seed        = flag.Int64("seed", 1, "RNG seed")
		maxValids   = flag.Int("valids", 0, "stop after N valid inputs (0 = run out the budget)")
		cache       = flag.Bool("cache", true, "prefix-decided execution cache (adaptive; identical output either way, see DESIGN.md §10); with -resume an explicitly passed value overrides the snapshot and true forces the cache on, retirement disabled")
		quiet       = flag.Bool("quiet", false, "print only the summary")
		list        = flag.Bool("list", false, "list registered subjects and exit")
		minePhase   = flag.Bool("mine", false, "hybrid campaign: mine a grammar from the valid corpus and validate generated candidates (§7.4)")
		mineBudget  = flag.Int("mine-budget", 0, "executions reserved for mined candidates (0 = execs/4)")
		mineTokens  = flag.Int("mine-tokens", 0, "max tokens per generated candidate (0 = 30)")
		mineCadence = flag.Int("mine-cadence", 0, "exploration executions between mining bursts (0 = four interleavings)")
		mineFrom    = flag.String("mine-from", "", "seed the -mine grammar from a saved corpus journal")
		outPath     = flag.String("out", "", "journal the campaign (valids + snapshots) to this file")
		resumePath  = flag.String("resume", "", "resume the campaign journaled at this file")
		snapEvery   = flag.Int("snap-every", 10000, "executions between journal snapshots")
		shimBin     = flag.String("shim", "", "drive the subject out of process through this shim binary (e.g. a built cmd/pshim); child crashes and hangs become recoverable per-exec outcomes")
	)
	flag.Parse()

	if *list {
		listSubjects()
		return
	}
	if flag.NArg() != 0 {
		fail("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	if *resumePath != "" && *outPath != "" && *resumePath != *outPath {
		fail("use either -resume (which keeps journaling to the same file) or -out, not both")
	}

	trapSignals()

	var run *campaignRun
	if *resumePath != "" {
		warnIgnoredOnResume()
		run = resume(*resumePath, *execs, *maxValids, cacheMode(*cache), *quiet, *shimBin)
	} else {
		cfg := flagConfig(*subjectName, *seed, *execs, *maxValids,
			*minePhase, *mineBudget, *mineTokens, *mineCadence, *mineFrom)
		if !*cache {
			cfg.Cache = core.CacheOff
		}
		run = fresh(cfg, *subjectName, *outPath, *quiet, *shimBin)
	}

	drive(run.camp, run.store, *snapEvery)
	run.summarize()
	if interrupted.Load() {
		exit(130)
	}
	exit(0)
}

// campaignRun bundles one invocation's campaign, journal and subject.
// The subject Program is constructed once and shared between the
// engine and the summary.
type campaignRun struct {
	camp  *core.Campaign
	store *corpus.Store
	entry registry.Entry
	prog  subject.Program
	host  *shim.Host
}

// The cleanup stack: every resource that must not be abandoned on any
// exit path — the corpus journal, shim child processes — registers
// here, and every exit (normal completion, fail, forced signal) runs
// the stack exactly once, LIFO. This is what guarantees a flag error
// after -out opened the journal still flushes and closes it.
var (
	cleanupMu   sync.Mutex
	cleanups    []func()
	cleanupDone bool

	// interrupted flips on the first SIGINT/SIGTERM; drive checks it
	// between slices so the campaign stops at a snapshot boundary.
	interrupted atomic.Bool
)

// onExit pushes a cleanup to run at process exit.
func onExit(f func()) {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	cleanups = append(cleanups, f)
}

// runCleanups runs the stack LIFO, once.
func runCleanups() {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	if cleanupDone {
		return
	}
	cleanupDone = true
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
}

// exit is the single exit path: cleanups, then the status code.
func exit(code int) {
	runCleanups()
	os.Exit(code)
}

func fail(msg string, args ...any) {
	fmt.Fprintf(os.Stderr, "pfuzzer: "+msg+"\n", args...)
	exit(2)
}

// trapSignals installs the graceful-shutdown handler: the first
// SIGINT/SIGTERM asks the drive loop to stop at the next snapshot
// boundary (final snapshot + summary still happen), the second forces
// an immediate exit through the cleanup stack, so shim children are
// killed and the journal is closed either way.
func trapSignals() {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "pfuzzer: interrupted — finishing the current slice, cutting a final snapshot (signal again to force exit)")
		<-sigc
		fmt.Fprintln(os.Stderr, "pfuzzer: forced exit")
		exit(130)
	}()
}

// explicit reports whether a flag was set on the command line.
func explicit(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// warnIgnoredOnResume flags the knobs a resumed campaign takes from
// its snapshot, so an explicitly passed value does not silently do
// nothing. -execs, -valids, -cache and -shim are the supported
// overrides (the shim is an execution vehicle, not campaign state).
func warnIgnoredOnResume() {
	ignored := map[string]bool{
		"subject": true, "seed": true,
		"mine": true, "mine-budget": true, "mine-tokens": true,
		"mine-cadence": true, "mine-from": true,
	}
	flag.Visit(func(f *flag.Flag) {
		if ignored[f.Name] {
			fmt.Fprintf(os.Stderr, "pfuzzer: -%s is ignored with -resume (the snapshot carries it)\n", f.Name)
		}
	})
}

// listSubjects prints the registry: every subject with its
// instrumented block count and token-inventory size.
func listSubjects() {
	fmt.Printf("%-8s %8s %8s\n", "subject", "blocks", "tokens")
	for _, e := range registry.All() {
		fmt.Printf("%-8s %8d %8d\n", e.Name, e.New().Blocks(), e.Inventory.Count())
	}
}

func lookup(name string) registry.Entry {
	entry, ok := registry.Get(name)
	if !ok {
		fail("unknown subject %q (have %s)", name, strings.Join(registry.Names(), ", "))
	}
	return entry
}

// shimWrap swaps an entry's execution vehicle for an out-of-process
// host driving shimBin children, registering the kill-all cleanup.
func shimWrap(entry registry.Entry, shimBin string) (registry.Entry, *shim.Host) {
	host, err := shim.NewHost(shim.CmdLauncher{Path: shimBin}, shim.Options{Subject: entry.Name})
	if err != nil {
		fail("%v", err)
	}
	onExit(host.Close)
	return shim.WrapEntry(entry, host), host
}

func flagConfig(subject string, seed int64, execs, maxValids int,
	mine bool, mineBudget, mineTokens, mineCadence int, mineFrom string) core.Config {
	cfg := core.Config{
		Seed: seed, MaxExecs: execs, MaxValids: maxValids,
		MinePhase: mine, MineBudget: mineBudget,
		MineMaxTokens: mineTokens, MineCadence: mineCadence,
	}
	if mineFrom != "" {
		if !mine {
			fail("-mine-from needs -mine")
		}
		prev, err := corpus.Open(mineFrom)
		if err != nil {
			fail("%v", err)
		}
		if prev.Meta().Subject != subject {
			fail("-mine-from %s holds a %s corpus, but -subject is %s: a foreign-language grammar would only generate invalid candidates",
				mineFrom, prev.Meta().Subject, subject)
		}
		cfg.MineSeeds = prev.ValidInputs()
		if err := prev.Close(); err != nil {
			fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "seeding grammar from %d valids in %s\n",
			len(cfg.MineSeeds), mineFrom)
	}
	return cfg
}

// events wires the campaign's event stream to stdout and the journal.
func events(store *corpus.Store, quiet bool) func(core.Event) {
	return func(ev core.Event) {
		if ev.Kind != core.EventValid {
			return
		}
		if store != nil {
			if err := store.AppendValid(ev.Execs, ev.Input); err != nil {
				fail("%v", err)
			}
		}
		if !quiet {
			fmt.Printf("%8d  %q\n", ev.Execs, ev.Input)
		}
	}
}

// fresh builds a new campaign from flags, creating the journal if
// -out was given.
func fresh(cfg core.Config, subjectName, outPath string, quiet bool, shimBin string) *campaignRun {
	entry := lookup(subjectName)
	cfg.MineLexer = entry.Lexer
	var host *shim.Host
	if shimBin != "" {
		entry, host = shimWrap(entry, shimBin)
	}
	var store *corpus.Store
	if outPath != "" {
		var err error
		store, err = corpus.Create(outPath, corpus.Meta{
			Subject: entry.Name, Tool: "pFuzzer", Seed: cfg.Seed, MaxExecs: cfg.MaxExecs,
		})
		if err != nil {
			fail("%v", err)
		}
		onExit(func() {
			if err := store.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "pfuzzer: closing journal: %v\n", err)
			}
		})
	}
	cfg.Events = events(store, quiet)
	prog := entry.New()
	return &campaignRun{camp: core.NewCampaign(prog, cfg), store: store, entry: entry, prog: prog, host: host}
}

// cacheMode maps the -cache flag to a Restore override: only an
// explicitly passed flag overrides the snapshot's saved mode.
func cacheMode(on bool) core.CacheMode {
	if !explicit("cache") {
		return core.CacheAuto // keep what the snapshot says
	}
	if on {
		return core.CacheOn
	}
	return core.CacheOff
}

// resume reopens a journal (recovering a torn tail if the previous
// run was killed mid-write), restores the engine from its last
// snapshot, and re-journals into the same file. Explicit -execs,
// -valids and -cache override the saved values; everything else comes
// from the snapshot.
func resume(path string, execs, maxValids int, cache core.CacheMode, quiet bool, shimBin string) *campaignRun {
	store, err := corpus.Open(path)
	if err != nil {
		fail("%v", err)
	}
	onExit(func() {
		if err := store.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "pfuzzer: closing journal: %v\n", err)
		}
	})
	if n := store.TruncatedBytes(); n > 0 {
		fmt.Fprintf(os.Stderr, "recovered journal %s: dropped %d bytes of torn tail\n", path, n)
	}
	blob := store.Snapshot()
	if blob == nil {
		fail("journal %s holds no snapshot to resume from", path)
	}
	snap, err := core.UnmarshalSnapshot(blob)
	if err != nil {
		fail("%v", err)
	}
	entry := lookup(store.Meta().Subject)
	var host *shim.Host
	if shimBin != "" {
		entry, host = shimWrap(entry, shimBin)
	}
	over := core.Config{
		Events:    events(store, quiet),
		MineLexer: entry.Lexer,
		Cache:     cache,
	}
	if explicit("execs") {
		over.MaxExecs = execs
	}
	if explicit("valids") {
		over.MaxValids = maxValids
	}
	prog := entry.New()
	camp, err := core.Restore(prog, over, snap)
	if err != nil {
		fail("%v", err)
	}
	fmt.Fprintf(os.Stderr, "resuming %s at %d execs, %d valids\n",
		entry.Name, camp.Result().Execs, len(camp.Result().Valids))
	return &campaignRun{camp: camp, store: store, entry: entry, prog: prog, host: host}
}

// drive steps the campaign to completion, snapshotting into the
// journal between slices so a kill at any point loses at most one
// slice of work. An interrupt stops the loop at a snapshot boundary,
// after the final snapshot has landed.
func drive(camp *core.Campaign, store *corpus.Store, snapEvery int) {
	if snapEvery < 1 {
		snapEvery = 10000
	}
	for {
		spent, more := camp.Step(snapEvery)
		if store != nil {
			blob, err := camp.Snapshot().Marshal()
			if err != nil {
				fail("%v", err)
			}
			if err := store.AppendSnapshot(blob); err != nil {
				fail("%v", err)
			}
		}
		// spent == 0 with more: a stuck engine. Treat as terminal like
		// Fuzzer.Run and the fleet do, instead of journaling snapshots
		// forever.
		if !more || spent == 0 || interrupted.Load() {
			return
		}
	}
}

func (r *campaignRun) summarize() {
	res, entry := r.camp.Result(), r.entry
	if interrupted.Load() {
		fmt.Printf("\ninterrupted — partial results:")
	}
	fmt.Printf("\nsubject=%s execs=%d valids=%d coverage=%d/%d (%.1f%%) elapsed=%v\n",
		entry.Name, res.Execs, len(res.Valids), len(res.Coverage), r.prog.Blocks(),
		100*float64(len(res.Coverage))/float64(r.prog.Blocks()), res.Elapsed.Round(time.Millisecond))
	if res.CacheHits+res.CacheMisses > 0 {
		state := ""
		if res.CacheRetired {
			state = " (adaptively retired)"
		}
		fmt.Printf("cache: %d hits / %d misses (%.1f%% hit rate)%s, exec layer %v\n",
			res.CacheHits, res.CacheMisses, 100*res.CacheHitRate(), state,
			res.ExecElapsed.Round(time.Millisecond))
	}
	if r.host != nil {
		st := r.host.Stats()
		trip := ""
		if st.Tripped {
			trip = " — circuit breaker tripped"
		}
		fmt.Printf("shim: %d execs over %d children, lost %d crashed / %d hung / %d protocol / %d unavailable%s\n",
			st.Execs, st.Spawns, st.Crashes, st.Hangs, st.Protocol, st.Unavailable, trip)
	}

	found := map[string]bool{}
	for _, v := range res.Valids {
		for tok := range entry.Tokenize(v.Input) {
			found[tok] = true
		}
	}
	var names []string
	for _, tok := range entry.Inventory {
		if found[tok.Name] {
			names = append(names, tok.Name)
		}
	}
	fmt.Printf("tokens covered (%d/%d): %s\n", len(names), entry.Inventory.Count(),
		strings.Join(names, " "))
}
