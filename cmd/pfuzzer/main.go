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
// total budget. If a journal write fails, pfuzzer finishes the current
// slice, cuts no further snapshot, prints the summary and exits 2; a
// -resume picks up at the last snapshot before the failure.
// -mine-from seeds the -mine grammar from a previously
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
// signal forces exit 130 at once: the shim children are killed and
// the journal is left as a kill -9 would leave it, which -resume
// recovers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"pfuzzer/internal/campaign"
	"pfuzzer/internal/core"
	"pfuzzer/internal/corpus"
	"pfuzzer/internal/exitstack"
	"pfuzzer/internal/registry"
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
		exits.Fail("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	if *resumePath != "" && *outPath != "" && *resumePath != *outPath {
		exits.Fail("use either -resume (which keeps journaling to the same file) or -out, not both")
	}

	exits.Trap(func() {
		interrupted.Store(true)
		fmt.Fprintln(os.Stderr, "pfuzzer: interrupted — finishing the current slice, cutting a final snapshot (signal again to force exit)")
	})

	if *snapEvery < 1 {
		*snapEvery = 10000
	}
	opts := campaign.DurableOptions{Journal: *outPath, Tool: "pFuzzer", SnapEvery: *snapEvery, Events: printValids(*quiet)}
	if *shimBin != "" {
		opts.Shim = []string{*shimBin}
	}
	var d *campaign.Durable
	var err error
	if *resumePath != "" {
		warnIgnoredOnResume()
		opts.Journal = *resumePath
		over := core.Config{Cache: cacheMode(*cache)}
		if explicit("execs") {
			over.MaxExecs = *execs
		}
		if explicit("valids") {
			over.MaxValids = *maxValids
		}
		d, err = campaign.ResumeDurable(over, nil, opts)
	} else {
		cfg := flagConfig(*subjectName, *seed, *execs, *maxValids,
			*minePhase, *mineBudget, *mineTokens, *mineCadence, *mineFrom)
		if !*cache {
			cfg.Cache = core.CacheOff
		}
		d, err = campaign.NewDurable(*subjectName, cfg, opts)
	}
	if err != nil {
		exits.Fail("%v", err)
	}
	// A forced exit may land while the main goroutine is inside Step,
	// so its cleanup only kills the shim children: the kernel drops
	// the journal's fd and lock, and the journal is kill -9 safe.
	if h := d.Host(); h != nil {
		exits.OnExit(h.Close)
	}
	if *resumePath != "" {
		if n := d.TruncatedBytes(); n > 0 {
			fmt.Fprintf(os.Stderr, "recovered journal %s: dropped %d bytes of torn tail\n", *resumePath, n)
		}
		res := d.Campaign().Result()
		fmt.Fprintf(os.Stderr, "resuming %s at %d execs, %d valids\n", d.Entry().Name, res.Execs, len(res.Valids))
	}

	err = drive(d, *snapEvery)
	err = errors.Join(err, d.Close())
	summarize(d)
	if err != nil {
		exits.Fail("%v", err)
	}
	if interrupted.Load() {
		exits.Exit(130)
	}
	exits.Exit(0)
}

var (
	exits = exitstack.New("pfuzzer")

	// interrupted flips on the first SIGINT/SIGTERM; drive checks it
	// between slices so the campaign stops at a snapshot boundary.
	interrupted atomic.Bool
)

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

func flagConfig(subject string, seed int64, execs, maxValids int,
	mine bool, mineBudget, mineTokens, mineCadence int, mineFrom string) core.Config {
	cfg := core.Config{
		Seed: seed, MaxExecs: execs, MaxValids: maxValids,
		MinePhase: mine, MineBudget: mineBudget,
		MineMaxTokens: mineTokens, MineCadence: mineCadence,
	}
	if mineFrom != "" {
		if !mine {
			exits.Fail("-mine-from needs -mine")
		}
		prev, err := corpus.Open(mineFrom)
		if err != nil {
			exits.Fail("%v", err)
		}
		if prev.Meta().Subject != subject {
			exits.Fail("-mine-from %s holds a %s corpus, but -subject is %s: a foreign-language grammar would only generate invalid candidates",
				mineFrom, prev.Meta().Subject, subject)
		}
		cfg.MineSeeds = prev.ValidInputs()
		if err := prev.Close(); err != nil {
			exits.Fail("%v", err)
		}
		fmt.Fprintf(os.Stderr, "seeding grammar from %d valids in %s\n",
			len(cfg.MineSeeds), mineFrom)
	}
	return cfg
}

// printValids streams each valid input to stdout, unless quiet.
func printValids(quiet bool) func(core.Event) {
	if quiet {
		return nil
	}
	return func(ev core.Event) {
		if ev.Kind == core.EventValid {
			fmt.Printf("%8d  %q\n", ev.Execs, ev.Input)
		}
	}
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

// drive steps the campaign in -snap-every slices, each followed by a
// snapshot in the journal, so a kill at any point loses at most one
// slice of work. It stops at the end of the campaign, on an
// interrupt, on a journal error, or when a step spends nothing (a
// stuck engine, treated as terminal like Fuzzer.Run and the fleet
// do). A journal error surfaces at the end of the slice it happened
// in: the rest of that slice still runs and prints its valids, and
// no snapshot is cut after it.
func drive(d *campaign.Durable, snapEvery int) error {
	for {
		spent, more, err := d.Step(snapEvery)
		if err != nil || !more || spent == 0 || interrupted.Load() {
			return err
		}
	}
}

func summarize(d *campaign.Durable) {
	res, entry, blocks := d.Campaign().Result(), d.Entry(), d.Program().Blocks()
	if interrupted.Load() {
		fmt.Printf("\ninterrupted — partial results:")
	}
	fmt.Printf("\nsubject=%s execs=%d valids=%d coverage=%d/%d (%.1f%%) elapsed=%v\n",
		entry.Name, res.Execs, len(res.Valids), len(res.Coverage), blocks,
		100*float64(len(res.Coverage))/float64(blocks), res.Elapsed.Round(time.Millisecond))
	if res.CacheHits+res.CacheMisses > 0 {
		state := ""
		if res.CacheRetired {
			state = " (adaptively retired)"
		}
		fmt.Printf("cache: %d hits / %d misses (%.1f%% hit rate)%s, exec layer %v\n",
			res.CacheHits, res.CacheMisses, 100*res.CacheHitRate(), state,
			res.ExecElapsed.Round(time.Millisecond))
	}
	if h := d.Host(); h != nil {
		st := h.Stats()
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
