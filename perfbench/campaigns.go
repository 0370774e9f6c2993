package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"pfuzzer/internal/core"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/subject"
)

// Campaign budgets. CacheAuto judges the cache at the engine's first
// milestone (8192 executions) and retires it on the explore subjects;
// README.md gives the share of explore executions that run before it.
// ini and csv are served almost wholly from the cache,
// so they get a budget large enough to weigh in against the other
// cached subjects.
const (
	exploreExecs = 20000
	tinycExecs   = 20000
	cachedExecs  = 50000
	flatExecs    = 300000

	// stepSlice is the Step size, the fleet's default slice.
	stepSlice = 4096
	// setupReps is how many set-ups a pass times after its rounds, so
	// setup_s is a median over many.
	setupReps = 31
	// firstReps is how many times at least an untraced pass times each
	// probed campaign's first Step slice; its first progress is the
	// median of them.
	firstReps = 3
)

// Seeds per subject in one round. Campaign outcomes vary a lot from
// seed to seed (an mjs campaign finds anywhere from 1 to 80 valids), so
// a round runs each subject on several seeds, and totals and
// percentiles move less when --seed changes.
const (
	exploreSeeds = 9
	cachedSeeds  = 10
)

// Seeds per subject whose first Step slice an untraced pass times for
// first_progress_ms. A slice takes milliseconds, so more campaigns are
// started than a round runs to the end. How soon a campaign first
// reports progress depends on its seed (a dotg campaign's first slice
// takes from 4 to 17 ms), and with the round's 10 seeds the p50 on
// cached fell among dotg's fastest seeds in some runs only.
const (
	exploreFirstSeeds = 12
	cachedFirstSeeds  = 60
)

// minRounds is how many times a pass runs its plan at least; later
// rounds must reproduce the first exactly.
const minRounds = 2

// campaignSpec is one campaign of a workload plan.
type campaignSpec struct {
	Subject string
	Seed    int64
	Execs   int
	Mine    bool
}

func (s campaignSpec) String() string {
	kind := "serial"
	if s.Mine {
		kind = "hybrid"
	}
	return fmt.Sprintf("%s/%s/seed=%d", s.Subject, kind, s.Seed)
}

// explorePlan covers the subjects whose CacheAuto verdict retires the
// cache at the first milestone, plus hybrid (mining) campaigns on two
// of them, each on the given number of seeds.
func explorePlan(seed int64, seeds int) []campaignSpec {
	var plan []campaignSpec
	for k := 0; k < seeds; k++ {
		for _, s := range []string{"cjson", "mjs", "expr", "urlp", "sexpr", "httpreq"} {
			plan = append(plan, campaignSpec{s, subSeed(seed, len(plan)), exploreExecs, false})
		}
		for _, s := range []string{"cjson", "mjs"} {
			plan = append(plan, campaignSpec{s, subSeed(seed, len(plan)), exploreExecs, true})
		}
	}
	return plan
}

// cachedPlan covers the subjects where CacheAuto keeps the cache, each
// on the given number of seeds.
func cachedPlan(seed int64, seeds int) []campaignSpec {
	var plan []campaignSpec
	for k := 0; k < seeds; k++ {
		plan = append(plan, campaignSpec{"tinyc", subSeed(seed, len(plan)), tinycExecs, false})
		for _, s := range []string{"dotg", "paren"} {
			plan = append(plan, campaignSpec{s, subSeed(seed, len(plan)), cachedExecs, false})
		}
		for _, s := range []string{"ini", "csv"} {
			plan = append(plan, campaignSpec{s, subSeed(seed, len(plan)), flatExecs, false})
		}
	}
	return plan
}

// probe is a campaign's core.Event sink, installed on every campaign as
// the pfuzzer command and the daemon install theirs. Untraced it does
// nothing; traced it tallies pops, queue length and mining bursts and
// records valids, cache reports and bursts as spans.
type probe struct {
	rec     *recorder // nil when untraced
	traceID string
	parent  int64

	pops    int
	qlenSum int64
	qlenMax int

	// hits and hitsUntil follow the engine's cache reports: the
	// cumulative hits, and the executions at the last report whose
	// hits had grown (where the cache was last seen live).
	hits      int
	hitsUntil int

	mining      bool
	burstAt     time.Time
	burstExec   int
	bursts      int
	burstExecs  int
	burstTime   time.Duration
	burstValids int
}

func (p *probe) event(ev core.Event) {
	if p.rec == nil {
		return
	}
	switch ev.Kind {
	case core.EventPop:
		p.pops++
		p.qlenSum += int64(ev.QueueLen)
		if ev.QueueLen > p.qlenMax {
			p.qlenMax = ev.QueueLen
		}
	case core.EventValid:
		if p.mining {
			p.burstValids++
		}
		now := time.Now()
		p.rec.add(0, "core.EventValid", p.traceID, p.parent, now, now)
	case core.EventCache:
		if ev.Hits > p.hits {
			p.hits, p.hitsUntil = ev.Hits, ev.Execs
		}
		now := time.Now()
		p.rec.add(0, "core.EventCache", p.traceID, p.parent, now, now)
	case core.EventPhase:
		now := time.Now()
		switch {
		case ev.Mining && !p.mining:
			p.mining, p.burstAt, p.burstExec = true, now, ev.Execs
		case !ev.Mining && p.mining:
			p.mining = false
			p.bursts++
			p.burstExecs += ev.Execs - p.burstExec
			p.burstTime += now.Sub(p.burstAt)
			p.rec.add(0, "mine.burst", p.traceID, p.parent, p.burstAt, now)
		}
	}
}

// built is a campaign set up and ready for its first Step.
type built struct {
	spec  campaignSpec
	entry registry.Entry
	camp  *core.Campaign
	prog  *tracedProgram // nil when untraced
	probe *probe
}

// build sets up one campaign, ready for its first Step.
func build(sp campaignSpec, rec *recorder, traceID string) (*built, error) {
	entry, ok := registry.Get(sp.Subject)
	if !ok {
		return nil, fmt.Errorf("unknown subject %q", sp.Subject)
	}
	b := &built{spec: sp, entry: entry, probe: &probe{rec: rec, traceID: traceID}}
	var prog subject.Program = entry.New()
	if rec != nil {
		b.prog = &tracedProgram{Program: prog, rec: rec, traceID: traceID}
		prog = b.prog
	}
	b.camp = core.NewCampaign(prog, core.Config{
		Seed: sp.Seed, MaxExecs: sp.Execs, MinePhase: sp.Mine,
		MineLexer: entry.Lexer, Events: b.probe.event,
	})
	return b, nil
}

// setupTime times setting up every campaign of plan, the time until a
// round's first Step could be taken. Every sample starts from memory
// handed back to the OS, as a fresh process would: a sample that finds
// the pages of an earlier set-up still resident is faster by a factor
// that depends on when the scavenger last ran.
func setupTime(plan []campaignSpec) (time.Duration, error) {
	debug.FreeOSMemory()
	bs := make([]*built, len(plan))
	t0 := time.Now()
	for i, sp := range plan {
		b, err := build(sp, nil, "")
		if err != nil {
			return 0, err
		}
		bs[i] = b
	}
	return time.Since(t0), nil
}

// campaignRun is one finished campaign.
type campaignRun struct {
	spec  campaignSpec
	entry registry.Entry
	res   *core.Result
	fp    uint64
	wall  time.Duration // first Step to finish

	// Traced only.
	steps    int
	stepTime time.Duration
	prog     *tracedProgram
	probe    *probe
	rt       rtDelta
}

// drive steps one campaign to completion in stepSlice slices. A panic
// out of the engine or the subject fails the campaign with an error
// that names it, instead of ending the run without a result.
func drive(b *built, rec *recorder) (cr campaignRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s panicked: %v", b.spec, p)
		}
	}()
	cr = campaignRun{spec: b.spec, entry: b.entry, prog: b.prog, probe: b.probe}
	campID := rec.id()
	b.probe.parent = campID
	var before rtSample
	if rec != nil {
		before = readRuntime()
	}
	start := time.Now()
	for {
		stepID := rec.id()
		if b.prog != nil {
			b.prog.step = stepID
		}
		s0 := time.Now()
		spent, more := b.camp.Step(stepSlice)
		s1 := time.Now()
		cr.steps++
		cr.stepTime += s1.Sub(s0)
		rec.add(stepID, "core.Campaign.Step", b.probe.traceID, campID, s0, s1)
		if !more || spent == 0 {
			break
		}
	}
	end := time.Now()
	if rec != nil {
		cr.rt.addSince(before)
	}
	rec.add(campID, "campaign", b.probe.traceID, 0, start, end)
	cr.wall = end.Sub(start)
	// Copy the result out: the engine owns the original, and keeping a
	// pointer into it would keep the whole campaign (queue, cache)
	// alive.
	res := *b.camp.Result()
	cr.res = &res
	cr.fp = res.Fingerprint()
	return cr, nil
}

// campaignPass is one measured pass over a plan: minRounds rounds of
// the plan, then more while another round still fits in the pass's
// seconds.
type campaignPass struct {
	rounds [][]campaignRun
	setups []float64 // seconds
	execs  int
	wall   time.Duration
	heap   float64   // MB, the mean over campaigns of the live heap at its end
	first  []float64 // ms, each probed campaign's median first Step slice
}

// measureCampaigns runs a pass over plan. Between the round's
// campaigns it times the first Step slice of the campaigns of
// firstPlan, going round firstPlan, as many before each as spreads
// firstReps turns over minRounds rounds. So a campaign's timings lie
// far apart in the pass, and their median drops the odd fast or slow
// one: with one timing per campaign, the p50 moved by a fifth between
// passes of one process; with the median of three, by a twentieth.
func measureCampaigns(e *env, plan []campaignSpec, rec *recorder, firstPlan []campaignSpec) (*campaignPass, error) {
	p := &campaignPass{}
	var heaps []float64
	perRun := (firstReps*len(firstPlan) + minRounds*len(plan) - 1) / (minRounds * len(plan))
	firsts := make([][]float64, len(firstPlan))
	next := 0
	for round := 0; round < minRounds || p.wall+p.wall/time.Duration(round) <= e.seconds; round++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		runs := make([]campaignRun, len(plan))
		t0 := time.Now()
		for i, sp := range plan {
			if perRun > 0 {
				for k := 0; k < perRun; k++ {
					j := next % len(firstPlan)
					ms, err := firstProgress(firstPlan[j])
					if err != nil {
						return nil, err
					}
					firsts[j] = append(firsts[j], ms)
					next++
				}
				runtime.GC() // the round's campaign starts on a collected heap
			}
			b, err := build(sp, rec, fmt.Sprintf("r%d.c%d.%s", round, i, sp))
			if err != nil {
				return nil, err
			}
			if runs[i], err = drive(b, rec); err != nil {
				return nil, err
			}
			// Measured while the finished engine is still referenced;
			// the collection also hands the next campaign a clean heap.
			heaps = append(heaps, liveHeapMB())
			runtime.KeepAlive(b)
			p.execs += runs[i].res.Execs
		}
		p.wall += time.Since(t0)
		if round > 0 {
			// Only the first round's results are kept for the oracle;
			// later rounds must reproduce its fingerprints.
			for i := range runs {
				runs[i].res = nil
			}
		}
		p.rounds = append(p.rounds, runs)
	}
	p.heap = mean(heaps)
	for _, xs := range firsts {
		p.first = append(p.first, median(xs))
	}
	for i := 0; i < setupReps; i++ {
		d, err := setupTime(plan)
		if err != nil {
			return nil, err
		}
		p.setups = append(p.setups, d.Seconds())
	}
	return p, nil
}

// firstProgress times a fresh campaign's first Step slice, the time to
// its first progress report (the engine's first EventCache, the first
// status with execs > 0), in milliseconds, on a collected heap, as the
// round's campaigns start. A panic out of the engine or the subject
// fails the run with an error that names the campaign, as drive does.
func firstProgress(sp campaignSpec) (ms float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s panicked: %v", sp, p)
		}
	}()
	b, err := build(sp, nil, "")
	if err != nil {
		return 0, err
	}
	runtime.GC()
	t0 := time.Now()
	b.camp.Step(stepSlice)
	return float64(time.Since(t0)) / float64(time.Millisecond), nil
}

// campaignWorkload runs a campaign plan. Untraced it reports the
// end-to-end metrics, with first progress timed on the campaigns of
// firstPlan; traced it runs an untraced pass and a traced pass and
// reports the per-layer metrics and the tracing overhead.
func campaignWorkload(e *env, r *report, plan, firstPlan []campaignSpec) error {
	if !e.trace {
		u, err := measureCampaigns(e, plan, nil, firstPlan)
		if err != nil {
			return err
		}
		checkCampaignPass(r, u)
		campaignEndToEnd(r, u)
		return nil
	}
	u, err := measureCampaigns(e, plan, nil, nil)
	if err != nil {
		return err
	}
	rec := newRecorder()
	t, err := measureCampaigns(e, plan, rec, nil)
	if err != nil {
		return err
	}
	checkCampaignPass(r, t)
	for i := range plan {
		r.check(u.rounds[0][i].fp == t.rounds[0][i].fp,
			"%s: traced fingerprint %x != untraced %x", plan[i], t.rounds[0][i].fp, u.rounds[0][i].fp)
	}
	campaignLayers(r, u, t, rec)
	if err := rec.write(e.spans, map[string]any{"seed": e.seed, "workload_plan": planNames(plan)}); err != nil {
		return err
	}
	r.lines = append(r.lines, fmt.Sprintf("spans: %d written to %s", rec.count(), e.spans))
	return nil
}

func planNames(plan []campaignSpec) []string {
	out := make([]string, len(plan))
	for i, sp := range plan {
		out[i] = sp.String()
	}
	return out
}

// checkCampaignPass applies the oracle to a pass: the first round's
// results against a fresh uncached program and the engine's own
// counter identities, later rounds against the first round's
// fingerprints.
func checkCampaignPass(r *report, p *campaignPass) {
	first := p.rounds[0]
	for _, cr := range first {
		res := cr.res
		r.check(res.CacheHits+res.CacheMisses == res.Execs,
			"%s: cache hits %d + misses %d != execs %d", cr.spec, res.CacheHits, res.CacheMisses, res.Execs)
		if cr.prog != nil {
			r.check(int(cr.prog.calls) == res.CacheMisses,
				"%s: %d wrapped Run calls != %d cache misses", cr.spec, cr.prog.calls, res.CacheMisses)
		}
		cover, err := replayValids(cr.entry.New, res.ValidInputs())
		if r.checkErr(err, cr.spec.String()) {
			r.check(sameBlocks(cover, res.Coverage),
				"%s: replayed valids cover %d blocks, result reports %d", cr.spec, len(cover), len(res.Coverage))
		}
	}
	for round := 1; round < len(p.rounds); round++ {
		for i, cr := range p.rounds[round] {
			r.check(cr.fp == first[i].fp, "%s: round %d fingerprint %x != round 0 %x",
				cr.spec, round, cr.fp, first[i].fp)
		}
	}
}

// rate is the pass's executions per second over every campaign run of
// every round. Unlike the fastest of each campaign's runs, it does not
// rise as a faster host fits another round in.
func (p *campaignPass) rate() float64 {
	var execs int
	var wall time.Duration
	for _, round := range p.rounds {
		for i, cr := range round {
			execs += p.rounds[0][i].res.Execs
			wall += cr.wall
		}
	}
	return float64(execs) / wall.Seconds()
}

func campaignEndToEnd(r *report, p *campaignPass) {
	var valids, blocks int
	for _, cr := range p.rounds[0] {
		valids += len(cr.res.Valids)
		blocks += len(cr.res.Coverage)
	}
	// Turnaround percentiles are taken over every run of every round,
	// so the tail has samples enough beyond it.
	var turn []float64
	for _, round := range p.rounds {
		for _, cr := range round {
			turn = append(turn, cr.wall.Seconds())
		}
	}
	r.lines = append(r.lines, fmt.Sprintf("rounds=%d campaigns/round=%d execs=%d wall=%.3fs",
		len(p.rounds), len(p.rounds[0]), p.execs, p.wall.Seconds()))
	r.e2e("execs_per_s", p.rate(), "1/s", "(every run of every round)")
	r.e2e("valid_inputs", float64(valids), "count", fmt.Sprintf("(%d campaigns)", len(p.rounds[0])))
	r.e2e("coverage_blocks", float64(blocks), "count", "(summed union per campaign)")
	r.e2e("heap_mb", p.heap, "MB", "(mean over campaigns of the live heap at its end)")
	r.e2e("setup_s", median(p.setups), "s", fmt.Sprintf("(median of %d set-ups)", len(p.setups)))
	timingSummary(r, "turnaround_s", "s", turn)
	timingSummary(r, "first_progress_ms", "ms", p.first)
}

// campaignLayers derives the per-layer metrics from the traced pass t;
// u is the untraced pass of the same plan, the base of the tracing
// overhead.
func campaignLayers(r *report, u, t *campaignPass, rec *recorder) {
	var (
		execs, campaigns, retired, hits, steps int
		liveExecs                              int
		calls                                  int64
		runT, execT, stepT                     time.Duration
		pops, qlenMax                          int
		qlenSum                                int64
		rt                                     rtDelta
		hybridExecs, bursts, burstExecs        int
		burstValids                            int
		burstT                                 time.Duration
	)
	for _, round := range t.rounds {
		for i, cr := range round {
			// Later rounds dropped their results; their counters
			// equal the first round's (same fingerprints).
			res := t.rounds[0][i].res
			execs += res.Execs
			campaigns++
			hits += res.CacheHits
			if res.CacheRetired {
				retired++
				liveExecs += cr.probe.hitsUntil
			} else {
				liveExecs += res.Execs
			}
			execT += res.ExecElapsed
			stepT += cr.stepTime
			steps += cr.steps
			calls += cr.prog.calls
			runT += cr.prog.total
			pops += cr.probe.pops
			qlenSum += cr.probe.qlenSum
			if cr.probe.qlenMax > qlenMax {
				qlenMax = cr.probe.qlenMax
			}
			rt.merge(cr.rt)
			if cr.spec.Mine {
				hybridExecs += res.Execs
				bursts += cr.probe.bursts
				burstExecs += cr.probe.burstExecs
				burstValids += cr.probe.burstValids
				burstT += cr.probe.burstTime
			}
		}
	}
	fe := float64(execs)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	r.layer("core.execs", fe, "count", "(base of every per-exec figure)")
	r.layer("core.campaigns", float64(campaigns), "count", "")
	r.layer("core.steps", float64(steps), "count", "")
	r.layer("subject.calls", float64(calls), "count", "")
	r.layer("subject.run_us_per_call", ratio(us(runT), float64(calls)), "us", fmt.Sprintf("(%d calls)", calls))
	r.layer("subject.calls_per_exec", ratio(float64(calls), fe), "ratio", fmt.Sprintf("(%d calls / %d execs)", calls, execs))
	r.layer("core.exec_layer_us_per_exec", ratio(us(execT), fe), "us", "(ExecElapsed / execs)")
	r.layer("core.exec_overhead_us_per_exec", ratio(us(execT-runT), fe), "us", "((ExecElapsed - sum Run) / execs)")
	r.layer("core.search_us_per_exec", ratio(us(stepT-execT), fe), "us", "((sum Step - ExecElapsed) / execs)")
	r.layer("pqueue.pops_per_exec", ratio(float64(pops), fe), "ratio", fmt.Sprintf("(%d pops)", pops))
	r.layer("pqueue.len_mean", ratio(float64(qlenSum), float64(pops)), "count", fmt.Sprintf("(over %d pops)", pops))
	r.layer("pqueue.len_max", float64(qlenMax), "count", "")
	r.layer("core.allocs_per_exec", ratio(float64(rt.mallocs), fe), "count", "")
	r.layer("core.bytes_per_exec", ratio(float64(rt.bytes), fe), "B", "")
	r.layer("core.gc_cpu_share", ratio(rt.gcCPU, rt.usedCPU), "ratio", fmt.Sprintf("(of %.3f used cpu-s)", rt.usedCPU))
	r.layer("pcache.hit_ratio", ratio(float64(hits), fe), "ratio", fmt.Sprintf("(%d hits / %d execs)", hits, execs))
	r.layer("pcache.live_exec_share", ratio(float64(liveExecs), fe), "ratio",
		"(execs up to a retired cache's last hit, all of a kept cache's)")
	r.layer("pcache.retired_share", ratio(float64(retired), float64(campaigns)), "ratio",
		fmt.Sprintf("(%d of %d campaigns)", retired, campaigns))
	r.layer("mine.hybrid_execs", float64(hybridExecs), "count", "(base of mine.exec_share)")
	r.layer("mine.burst_execs", float64(burstExecs), "count", "(base of mine.valid_yield)")
	r.layer("mine.exec_share", ratio(float64(burstExecs), float64(hybridExecs)), "ratio", "")
	r.layer("mine.burst_ms", ratio(float64(burstT)/float64(time.Millisecond), float64(bursts)), "ms",
		fmt.Sprintf("(mean of %d bursts)", bursts))
	r.layer("mine.valid_yield", ratio(float64(burstValids), float64(burstExecs)), "ratio",
		fmt.Sprintf("(%d valids)", burstValids))
	tracingOverhead(r, u.rate(), t.rate(), rec)
}

// tracingOverhead reports the traced pass's throughput against the
// untraced pass's.
func tracingOverhead(r *report, untraced, traced float64, rec *recorder) {
	r.layer("trace.untraced_execs_per_s", untraced, "1/s", "")
	r.layer("trace.traced_execs_per_s", traced, "1/s", "")
	r.layer("trace.overhead_ratio", ratio(untraced, traced), "ratio", "(untraced / traced execs_per_s)")
	r.layer("trace.spans", float64(rec.count()), "count", "")
}
