package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pfuzzer/internal/core"
	"pfuzzer/internal/corpus"
	"pfuzzer/internal/daemon"
	"pfuzzer/internal/registry"
)

// The service plan: a round submits serviceRound campaigns from two
// closed-loop tenant clients, enough for a p90 with ten samples beyond
// it. A quarter are hybrid (mining), a quarter
// shimmed through the benchmark binary itself, and each shimmed
// campaign has an in-process twin with the same subject, seed and
// budget, which gives the shim cost ratio and a transparency check.
// Shimmed campaigns get a smaller budget because a shimmed execution
// costs an order of magnitude more than an in-process one. An
// in-process campaign spans two fleet slices (4096 executions each):
// Close lets a running slice finish, so a campaign still in its first
// slice at the restart is parked and resumed.
const (
	// serviceRound is a multiple of eight times the number of
	// subjects, so every subject gets the same number of each kind of
	// submission in each half of a round, whatever the seed.
	serviceRound = 160
	serviceExecs = 6000
	shimExecs    = 2000
)

// serviceSubjects are the subjects the service mix draws from: every
// registered subject except mjs, whose executions are slow enough to
// dominate a round on their own.
var serviceSubjects = []string{"expr", "paren", "urlp", "sexpr", "httpreq", "cjson", "csv", "ini", "tinyc", "dotg"}

// serviceItem is one submission of the plan.
type serviceItem struct {
	sub  daemon.Submission
	twin int // for a shimmed item, the index of its in-process twin; -1 otherwise
}

// servicePlan draws one round's submissions from the workload seed.
// Subjects are dealt round-robin from a seeded permutation, so every
// seed gives every subject the same share of each kind of submission,
// in each half of the round: the restart falls between the halves, and
// the restarted daemon holds the second half's campaigns. Item i
// belongs to client i%2.
func servicePlan(seed int64, shimArgv []string) []serviceItem {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(serviceSubjects))
	dealt := 0
	pick := func() string {
		dealt++
		return serviceSubjects[perm[dealt%len(perm)]]
	}
	type draft struct {
		sub  daemon.Submission
		pair int // shared by a shimmed item and its twin; -1 otherwise
	}
	var ds []draft
	q := serviceRound / 8 // items of each kind in each half
	for half := 1; half <= 2; half++ {
		start := len(ds)
		for i := 0; i < q; i++ {
			sub := daemon.Submission{Subject: pick(), Seed: subSeed(seed, len(ds)), MaxExecs: shimExecs}
			twin := sub
			sub.Shim = shimArgv
			ds = append(ds, draft{sub, len(ds)}, draft{twin, len(ds)})
		}
		for i := 0; i < q; i++ {
			ds = append(ds, draft{daemon.Submission{Subject: pick(), Seed: subSeed(seed, len(ds)), MaxExecs: serviceExecs, Mine: true}, -1})
		}
		for len(ds) < half*serviceRound/2 {
			ds = append(ds, draft{daemon.Submission{Subject: pick(), Seed: subSeed(seed, len(ds)), MaxExecs: serviceExecs}, -1})
		}
		h := ds[start:]
		rng.Shuffle(len(h), func(i, j int) { h[i], h[j] = h[j], h[i] })
	}
	items := make([]serviceItem, len(ds))
	twinOf := map[int]int{}
	for i, d := range ds {
		d.sub.Tenant = []string{"tenant-a", "tenant-b"}[i%2]
		items[i] = serviceItem{sub: d.sub, twin: -1}
		if d.pair >= 0 && len(d.sub.Shim) == 0 {
			twinOf[d.pair] = i
		}
	}
	for i, d := range ds {
		if d.pair >= 0 && len(d.sub.Shim) > 0 {
			items[i].twin = twinOf[d.pair]
		}
	}
	return items
}

// live is one running daemon served on a loopback listener.
type live struct {
	srv  *daemon.Server
	hs   *http.Server
	base string
	done chan error

	stopOnce sync.Once
	stopErr  error
}

// serve starts HTTP on 127.0.0.1:0 for srv and waits until /healthz
// answers.
func serve(ctx context.Context, srv *daemon.Server, client *http.Client) (*live, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &live{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+"/healthz", nil)
	if err != nil {
		return nil, errors.Join(err, l.stop())
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("healthz: %w", err), l.stop())
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining a probe
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, errors.Join(fmt.Errorf("healthz: %s", resp.Status), l.stop())
	}
	return l, nil
}

// stop closes the daemon gracefully (parking live campaigns with a
// final snapshot and killing their shim children), then the HTTP
// server. Closing the daemon first ends every event stream, so the
// HTTP shutdown has no open stream to wait for. Only the first call
// does the work; the cleanup path may call it again.
func (l *live) stop() error {
	l.stopOnce.Do(func() {
		err := l.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if serr := l.hs.Shutdown(ctx); serr != nil {
			err = errors.Join(err, serr)
		}
		if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		l.stopErr = err
	})
	return l.stopErr
}

// observation is what a client saw of one campaign.
type observation struct {
	item       int
	id         string
	submit     time.Duration
	first      time.Duration
	turnaround time.Duration
	status     daemon.Status
	// restarted is set when the final status was served by the
	// daemon started at the restart.
	restarted bool
	// blocks is the coverage of the campaign's journaled valids,
	// replayed by the oracle.
	blocks int
}

// fromSpec reports whether o's final status is one the restarted
// daemon rebuilt from the spec of a campaign that had settled before
// the restart. Such a status carries only what the spec persists
// (execs, valids, elapsed); its coverage_blocks and cache counters read
// 0. The exemption is granted only where the benchmark knows the
// campaign settled on the first daemon (settled holds the campaigns
// that daemon's table showed settled once it had closed) and its
// final status was served by the restarted daemon. Any other status
// without cache counters fails the oracle.
func (o *observation) fromSpec(settled map[string]bool) bool {
	st := &o.status
	return o.restarted && settled[o.id] && st.Execs > 0 && st.CacheHits == 0 && st.CacheMisses == 0
}

// serviceRun is one round against one daemon root.
type serviceRun struct {
	e      *env
	rec    *recorder
	cfg    daemon.Config
	client *http.Client
	plan   []serviceItem
	round  int

	gate sync.RWMutex // held exclusively while the daemon restarts
	cur  *live        // guarded by gate
	gen  int          // restarts so far; guarded by gate

	restartAt int // the plan item whose submission triggers the restart

	depthMax   atomic.Int32
	httpCalls  atomic.Int32
	inflight   []string        // campaigns running when the restart began
	settled    map[string]bool // campaigns the first daemon had settled once closed
	restart    time.Duration
	restartErr error
}

// current returns the live daemon for the cleanup path.
func (sv *serviceRun) current() *live {
	sv.gate.RLock()
	defer sv.gate.RUnlock()
	return sv.cur
}

// call performs one short HTTP request against the current daemon and
// reports whether that daemon is the one started at the restart.
func (sv *serviceRun) call(traceID, method, path string, body []byte, out any) (restarted bool, err error) {
	sv.gate.RLock()
	t0 := time.Now()
	err = sv.do(method, sv.cur.base+path, body, out)
	restarted = sv.gen > 0
	sv.gate.RUnlock()
	sv.rec.add(0, "http."+method+" "+routeOf(path), traceID, 0, t0, time.Now())
	return restarted, err
}

func (sv *serviceRun) do(method, url string, body []byte, out any) error {
	sv.httpCalls.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(sv.e.ctx, method, url, rd)
	if err != nil {
		return err
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(b)))
	}
	if sp, ok := out.(*string); ok {
		*sp = string(b)
		return nil
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return fmt.Errorf("%s %s: decoding: %w", method, url, err)
		}
	}
	return nil
}

// routeOf names a request path by its route, for span names.
func routeOf(path string) string {
	switch {
	case path == "/campaigns", path == "/metrics", path == "/healthz":
		return path
	case strings.HasSuffix(path, "/events"):
		return "/campaigns/{id}/events"
	default:
		return "/campaigns/{id}"
	}
}

// follow reads the campaign's event stream until it ends (the campaign
// retired, or the daemon closed for the restart) and returns how many
// events arrived. The first progress report (a "cache" event, sent at
// the end of every Step slice with the campaign's execs) sets *first.
func (sv *serviceRun) follow(id, traceID string, t0 time.Time, first *time.Duration) (int, error) {
	sv.gate.RLock()
	url := sv.cur.base + "/campaigns/" + id + "/events"
	s0 := time.Now()
	req, err := http.NewRequestWithContext(sv.e.ctx, http.MethodGet, url, nil)
	var resp *http.Response
	if err == nil {
		sv.httpCalls.Add(1)
		resp, err = sv.client.Do(req)
	}
	sv.gate.RUnlock()
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	n := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		n++
		var ev daemon.WireEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return n, fmt.Errorf("decoding event: %w", err)
		}
		if *first < 0 && ev.Kind == "cache" && ev.Execs > 0 {
			*first = time.Since(t0)
		}
		if ev.Kind == "retired" {
			break
		}
	}
	sv.rec.add(0, "http.GET /campaigns/{id}/events", traceID, 0, s0, time.Now())
	// A read error is a stream cut by the restart; the status check
	// that follows every stream decides whether the campaign settled.
	return n, nil
}

// one submits item i and waits until the campaign settles.
func (sv *serviceRun) one(i int) (observation, error) {
	o := observation{item: i, first: -1}
	body, err := json.Marshal(sv.plan[i].sub)
	if err != nil {
		return o, err
	}
	traceID := fmt.Sprintf("r%d.i%d", sv.round, i)
	t0 := time.Now()
	var st daemon.Status
	if _, err := sv.call(traceID, http.MethodPost, "/campaigns", body, &st); err != nil {
		return o, err
	}
	o.submit = time.Since(t0)
	o.id = st.ID
	if i == sv.restartAt {
		// Restart at once: the campaign has only just been queued or
		// started its first slice, so Close parks it mid-flight.
		sv.restartDaemon()
	}
	var text string
	if _, err := sv.call(traceID, http.MethodGet, "/metrics", nil, &text); err != nil {
		return o, err
	}
	sv.noteDepth(text)
	for {
		n, err := sv.follow(st.ID, traceID, t0, &o.first)
		if err != nil {
			return o, err
		}
		if o.restarted, err = sv.call(traceID, http.MethodGet, "/campaigns/"+st.ID, nil, &st); err != nil {
			return o, err
		}
		if st.State != daemon.StateRunning {
			break
		}
		if n == 0 {
			// The stream closed with no event while the campaign still
			// runs: it was parked by the restart and the resumed run
			// has not published yet.
			time.Sleep(time.Millisecond)
		}
	}
	o.turnaround = time.Since(t0)
	if o.first < 0 {
		// No progress report arrived before the campaign settled; the
		// settled status (execs > 0) is the first progress observed.
		o.first = o.turnaround
	}
	o.status = st
	return o, nil
}

// noteDepth records the fleet queue depth a /metrics scrape reports.
func (sv *serviceRun) noteDepth(text string) {
	for _, line := range strings.Split(text, "\n") {
		v, ok := strings.CutPrefix(line, "pfuzzerd_queue_depth ")
		if !ok {
			continue
		}
		if d, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
			for {
				cur := sv.depthMax.Load()
				if int32(d) <= cur || sv.depthMax.CompareAndSwap(cur, int32(d)) {
					break
				}
			}
		}
	}
}

// restartItem picks the submission that triggers the round's restart:
// the first in-process one of the round's second half. Its budget
// spans two slices, so when Close comes during its first, it is parked
// and resumed rather than settled.
func restartItem(plan []serviceItem) int {
	for i := len(plan) / 2; i < len(plan); i++ {
		if len(plan[i].sub.Shim) == 0 {
			return i
		}
	}
	return len(plan) / 2
}

// restartDaemon performs the round's graceful restart: Close (parking
// the campaigns in flight), then daemon.New over the populated root,
// which resumes them, served on a fresh loopback port.
func (sv *serviceRun) restartDaemon() {
	sv.gate.Lock()
	defer sv.gate.Unlock()
	for _, st := range sv.cur.srv.Campaigns() {
		if st.State == daemon.StateRunning {
			sv.inflight = append(sv.inflight, st.ID)
		}
	}
	c0 := time.Now()
	if err := sv.cur.stop(); err != nil {
		sv.restartErr = fmt.Errorf("closing for restart: %w", err)
	}
	c1 := time.Now()
	// A campaign in flight when the restart began may still settle
	// during Close, when its last slice ends its budget.
	sv.settled = map[string]bool{}
	for _, st := range sv.cur.srv.Campaigns() {
		if st.State != daemon.StateRunning {
			sv.settled[st.ID] = true
		}
	}
	sv.rec.add(0, "daemon.Close", "", 0, c0, c1)
	srv, err := daemon.New(sv.cfg)
	c2 := time.Now()
	sv.restart = c2.Sub(c1)
	sv.rec.add(0, "daemon.New", "", 0, c1, c2)
	if err != nil {
		sv.restartErr = errors.Join(sv.restartErr, fmt.Errorf("restarting: %w", err))
		return
	}
	sv.client.CloseIdleConnections()
	l, err := serve(sv.e.ctx, srv, sv.client)
	if err != nil {
		sv.restartErr = errors.Join(sv.restartErr, srv.Close(), fmt.Errorf("serving after restart: %w", err))
		return
	}
	sv.cur = l
	sv.gen++
}

// roundResult is one measured service round.
type roundResult struct {
	root     string // the round's daemon state, checked after the pass
	obs      []observation
	wall     time.Duration
	execs    int
	restart  time.Duration
	inflight []string
	settled  map[string]bool
	depthMax int
	calls    int
	snapKB   []float64
	journal  float64 // KB
	heap     float64 // MB, live heap at the round's end
	// coverageLost counts campaigns whose status, read from the
	// restarted daemon after they settled, lost coverage_blocks.
	coverageLost int
	rt           rtDelta
}

// resumed counts the campaigns the restarted daemon resumed from their
// snapshots: in flight at the restart, and not settled during Close.
func (rr *roundResult) resumed() int {
	n := 0
	for _, id := range rr.inflight {
		if !rr.settled[id] {
			n++
		}
	}
	return n
}

// startDaemon creates and serves a daemon over root; its duration is
// one set-up sample.
func startDaemon(ctx context.Context, cfg daemon.Config, client *http.Client) (*live, time.Duration, error) {
	t0 := time.Now()
	srv, err := daemon.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	l, err := serve(ctx, srv, client)
	if err != nil {
		return nil, 0, errors.Join(err, srv.Close())
	}
	return l, time.Since(t0), nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

// runRound runs one round of the plan and closes the daemon.
func runRound(e *env, plan []serviceItem, round int, rec *recorder) (*roundResult, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	cfg := daemon.Config{Root: filepath.Join(e.root, fmt.Sprintf("round-%d", round)), AllowShims: []string{e.exe}, Log: e.log}
	l, _, err := startDaemon(e.ctx, cfg, client)
	if err != nil {
		return nil, err
	}
	sv := &serviceRun{e: e, rec: rec, cfg: cfg, client: client, plan: plan, round: round, cur: l, restartAt: restartItem(plan)}
	e.cleanup.add(func() {
		if l := sv.current(); l != nil {
			l.stop() //nolint:errcheck // on the way out; the run already failed or finished
		}
	})
	var before rtSample
	if rec != nil {
		before = readRuntime()
	}
	var wg sync.WaitGroup
	obs := make([][]observation, 2)
	errs := make([]error, 2)
	t0 := time.Now()
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(plan); i += 2 {
				o, err := sv.one(i)
				if err != nil {
					errs[c] = fmt.Errorf("%s: %w", plan[i].sub.Subject, err)
					return
				}
				obs[c] = append(obs[c], o)
			}
		}(c)
	}
	wg.Wait()
	res := &roundResult{root: cfg.Root, wall: time.Since(t0)}
	rec.add(0, "service.round", fmt.Sprintf("r%d", round), 0, t0, t0.Add(res.wall))
	sv.gate.Lock()
	// Measured while the daemon still holds every campaign it ran since
	// the restart.
	res.heap = liveHeapMB()
	stopErr := sv.cur.stop()
	sv.cur = nil
	sv.gate.Unlock()
	if rec != nil {
		res.rt.addSince(before)
	}
	if err := errors.Join(errs[0], errs[1], sv.restartErr, stopErr); err != nil {
		return nil, err
	}
	res.obs = append(obs[0], obs[1]...)
	for _, o := range res.obs {
		res.execs += o.status.Execs
	}
	res.restart, res.inflight, res.settled = sv.restart, sv.inflight, sv.settled
	res.depthMax, res.calls = int(sv.depthMax.Load()), int(sv.httpCalls.Load())
	return res, nil
}

// checkRound is the service oracle: every campaign done, every journal
// holding exactly its reported valids (each accepted on replay, their
// blocks matching the reported coverage), every campaign in flight at
// the restart equal to an uninterrupted in-process campaign, and every
// shimmed campaign equal to its in-process twin.
func checkRound(r *report, plan []serviceItem, res *roundResult) {
	journals := map[int][][]byte{}
	for k := range res.obs {
		o := &res.obs[k]
		it := plan[o.item].sub
		what := fmt.Sprintf("%s (%s seed=%d shim=%v mine=%v)", o.id, it.Subject, it.Seed, len(it.Shim) > 0, it.Mine)
		r.check(o.status.State == daemon.StateDone, "%s: ended %s %s", what, o.status.State, o.status.Error)
		path := filepath.Join(res.root, o.id, "corpus")
		if fi, err := os.Stat(corpus.SnapPath(path)); err == nil {
			res.snapKB = append(res.snapKB, float64(fi.Size())/1024)
		}
		if fi, err := os.Stat(path); err == nil {
			res.journal += float64(fi.Size()) / 1024
		}
		st, err := corpus.Open(path)
		if !r.checkErr(err, what+": reopening journal") {
			continue
		}
		valids := st.ValidInputs()
		r.checkErr(st.Close(), what+": closing journal")
		journals[o.item] = valids
		r.check(len(valids) == o.status.Valids, "%s: journal holds %d valids, status says %d", what, len(valids), o.status.Valids)
		entry, _ := registry.Get(it.Subject)
		cover, err := replayValids(entry.New, valids)
		if !r.checkErr(err, what) {
			continue
		}
		o.blocks = len(cover)
		if o.fromSpec(res.settled) {
			res.coverageLost++
			continue
		}
		r.check(o.status.CacheHits+o.status.CacheMisses == o.status.Execs, "%s: cache hits %d + misses %d != execs %d",
			what, o.status.CacheHits, o.status.CacheMisses, o.status.Execs)
		r.check(len(cover) == o.status.CoverageBlocks, "%s: replayed valids cover %d blocks, status says %d",
			what, len(cover), o.status.CoverageBlocks)
	}
	byID := map[string]int{}
	for _, o := range res.obs {
		byID[o.id] = o.item
	}
	for _, id := range res.inflight {
		i, ok := byID[id]
		if !r.check(ok, "in-flight campaign %s never settled", id) {
			continue
		}
		r.check(sameInputs(journals[i], reference(plan[i].sub)),
			"%s: resumed campaign's valids differ from an uninterrupted in-process campaign", id)
	}
	for i, it := range plan {
		if it.twin >= 0 {
			r.check(sameInputs(journals[i], journals[it.twin]),
				"item %d: shimmed campaign's valids differ from its in-process twin", i)
		}
	}
}

// reference runs sub as an uninterrupted in-process campaign with the
// configuration the daemon gives it.
func reference(sub daemon.Submission) [][]byte {
	entry, _ := registry.Get(sub.Subject)
	c := core.NewCampaign(entry.New(), core.Config{
		Seed: sub.Seed, MaxExecs: sub.MaxExecs, MinePhase: sub.Mine, MineLexer: entry.Lexer,
	})
	for {
		if spent, more := c.Step(1 << 20); !more || spent == 0 {
			break
		}
	}
	return c.Result().ValidInputs()
}

// servicePass is one measured pass: minRounds rounds of the plan, then
// more while another round still fits in the pass's seconds. A round
// takes a few seconds, so a pass holds many: the rate and heap are the
// median round's, and the latency percentiles are taken over every
// submission of every round. Unlike the best of a campaign's runs,
// neither falls as a faster host fits more rounds in.
type servicePass struct {
	rounds []*roundResult
	setups []float64
}

func measureService(e *env, r *report, plan []serviceItem, rec *recorder) (*servicePass, error) {
	p := &servicePass{}
	var wall time.Duration
	for round := 0; round < minRounds || wall+wall/time.Duration(round) <= e.seconds; round++ {
		runtime.GC()
		res, err := runRound(e, plan, round, rec)
		if err != nil {
			return nil, err
		}
		wall += res.wall
		p.rounds = append(p.rounds, res)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	// Set-up samples start from memory handed back to the OS, as the
	// campaign workloads' do.
	for i := 0; i < setupReps; i++ {
		debug.FreeOSMemory()
		cfg := daemon.Config{Root: filepath.Join(e.root, fmt.Sprintf("setup-%d", i)), Log: e.log}
		l, d, err := startDaemon(e.ctx, cfg, client)
		if err != nil {
			return nil, err
		}
		if err := errors.Join(l.stop(), os.RemoveAll(cfg.Root)); err != nil {
			return nil, err
		}
		p.setups = append(p.setups, d.Seconds())
	}
	for _, rr := range p.rounds {
		checkRound(r, plan, rr)
		if err := os.RemoveAll(rr.root); err != nil {
			return nil, err
		}
	}
	// Every round replays the same plan, so per-campaign outcomes must
	// repeat exactly.
	first := outcomes(p.rounds[0])
	for i, rr := range p.rounds[1:] {
		got := outcomes(rr)
		for item, want := range first {
			r.check(got[item] == want, "round %d item %d: outcome %+v != round 0 %+v", i+1, item, got[item], want)
		}
	}
	return p, nil
}

type outcome struct{ execs, valids, blocks int }

func outcomes(rr *roundResult) map[int]outcome {
	m := map[int]outcome{}
	for _, o := range rr.obs {
		m[o.item] = outcome{o.status.Execs, o.status.Valids, o.blocks}
	}
	return m
}

func serviceWorkload(e *env, r *report) error {
	plan := servicePlan(e.seed, []string{e.exe, shimServeArg})
	u, err := measureService(e, r, plan, nil)
	if err != nil {
		return err
	}
	if !e.trace {
		serviceEndToEnd(r, u)
		return nil
	}
	rec := newRecorder()
	t, err := measureService(e, r, plan, rec)
	if err != nil {
		return err
	}
	uo, to := outcomes(u.rounds[0]), outcomes(t.rounds[0])
	for item, want := range uo {
		r.check(to[item] == want, "item %d: traced outcome %+v != untraced %+v", item, to[item], want)
	}
	serviceLayers(r, plan, u, t, rec)
	if err := rec.write(e.spans, map[string]any{"seed": e.seed}); err != nil {
		return err
	}
	r.lines = append(r.lines, fmt.Sprintf("spans: %d written to %s", rec.count(), e.spans))
	return nil
}

// rate is the median round's executions per second.
func (p *servicePass) rate() float64 {
	var rates []float64
	for _, rr := range p.rounds {
		rates = append(rates, float64(rr.execs)/rr.wall.Seconds())
	}
	return median(rates)
}

// heap is the median round's live heap at its end, in MB.
func (p *servicePass) heap() float64 {
	var hs []float64
	for _, rr := range p.rounds {
		hs = append(hs, rr.heap)
	}
	return median(hs)
}

func serviceEndToEnd(r *report, p *servicePass) {
	var valids, blocks, n int
	for _, o := range p.rounds[0].obs {
		valids += o.status.Valids
		blocks += o.blocks
	}
	var turn, first []float64
	for _, rr := range p.rounds {
		for _, o := range rr.obs {
			turn = append(turn, o.turnaround.Seconds())
			first = append(first, float64(o.first)/float64(time.Millisecond))
			n++
		}
	}
	r.lines = append(r.lines, fmt.Sprintf("rounds=%d campaigns=%d (2 closed-loop tenant clients, 1 restart per round)", len(p.rounds), n))
	r.e2e("execs_per_s", p.rate(), "1/s", "(median round)")
	r.e2e("valid_inputs", float64(valids), "count", fmt.Sprintf("(%d campaigns)", len(p.rounds[0].obs)))
	r.e2e("coverage_blocks", float64(blocks), "count", "(summed union per campaign)")
	r.e2e("heap_mb", p.heap(), "MB", "(median round's live heap at its end, daemon still up)")
	r.e2e("setup_s", median(p.setups), "s", fmt.Sprintf("(median of %d daemon starts to /healthz)", len(p.setups)))
	timingSummary(r, "turnaround_s", "s", turn)
	timingSummary(r, "first_progress_ms", "ms", first)
}

func serviceLayers(r *report, plan []serviceItem, u, t *servicePass, rec *recorder) {
	var (
		execs, campaigns, hits, hitBase, dropped, resumed, depthMax int
		calls, lost                                                 int
		submits, snaps, restarts                                    []float64
		engineMS, turnS, journalKB                                  float64
		shimMS, twinMS                                              float64
		shimExecsN, twinExecsN                                      int
		rt                                                          rtDelta
	)
	for _, rr := range t.rounds {
		byItem := map[int]observation{}
		for _, o := range rr.obs {
			byItem[o.item] = o
			execs += o.status.Execs
			campaigns++
			if !o.fromSpec(rr.settled) {
				hits += o.status.CacheHits
				hitBase += o.status.Execs
			}
			dropped += o.status.DroppedEvents
			engineMS += float64(o.status.ElapsedMS)
			turnS += o.turnaround.Seconds()
			submits = append(submits, float64(o.submit)/float64(time.Millisecond))
		}
		for i, it := range plan {
			if it.twin < 0 {
				continue
			}
			shimMS += float64(byItem[i].status.ElapsedMS)
			shimExecsN += byItem[i].status.Execs
			twinMS += float64(byItem[it.twin].status.ElapsedMS)
			twinExecsN += byItem[it.twin].status.Execs
		}
		snaps = append(snaps, rr.snapKB...)
		journalKB += rr.journal
		restarts = append(restarts, float64(rr.restart)/float64(time.Millisecond))
		resumed += rr.resumed()
		if rr.depthMax > depthMax {
			depthMax = rr.depthMax
		}
		calls += rr.calls
		lost += rr.coverageLost
		rt.merge(rr.rt)
	}
	fe := float64(execs)
	r.layer("core.execs", fe, "count", "(base of every per-exec figure)")
	r.layer("core.campaigns", float64(campaigns), "count", "")
	r.layer("core.allocs_per_exec", ratio(float64(rt.mallocs), fe), "count", "(whole process, per round)")
	r.layer("core.bytes_per_exec", ratio(float64(rt.bytes), fe), "B", "(whole process, per round)")
	r.layer("core.gc_cpu_share", ratio(rt.gcCPU, rt.usedCPU), "ratio", fmt.Sprintf("(of %.3f used cpu-s)", rt.usedCPU))
	r.layer("pcache.hit_ratio", ratio(float64(hits), float64(hitBase)), "ratio",
		fmt.Sprintf("(%d hits / %d execs with complete status)", hits, hitBase))
	p50, _ := percentile(submits, 50)
	p90, beyond := percentile(submits, 90)
	r.layer("daemon.submits", float64(len(submits)), "count", "")
	r.layer("daemon.submit_ms_p50", p50, "ms", fmt.Sprintf("(n=%d)", len(submits)))
	r.layer("daemon.submit_ms_p90", p90, "ms", fmt.Sprintf("(n=%d, %d beyond)", len(submits), beyond))
	r.layer("daemon.http_calls", float64(calls), "count", "")
	r.layer("campaign.queue_depth_max", float64(depthMax), "count", "(pfuzzerd_queue_depth, scraped per submission)")
	r.layer("daemon.turnaround_s_total", turnS, "s", "(base of daemon.engine_share)")
	r.layer("daemon.engine_share", ratio(engineMS/1000, turnS), "ratio", "(sum elapsed_ms / sum turnaround)")
	snap50, _ := percentile(snaps, 50)
	r.layer("corpus.snapshot_kb_p50", snap50, "KB", fmt.Sprintf("(n=%d final snapshots, gzip)", len(snaps)))
	r.layer("corpus.journal_kb_total", journalKB, "KB", "")
	r.layer("daemon.restart_ms", median(restarts), "ms", fmt.Sprintf("(median of %d restarts)", len(restarts)))
	r.layer("corpus.resumed_campaigns", float64(resumed), "count", "")
	r.layer("shim.us_per_exec", ratio(shimMS*1000, float64(shimExecsN)), "us", fmt.Sprintf("(%d shimmed execs)", shimExecsN))
	r.layer("shim.inproc_us_per_exec", ratio(twinMS*1000, float64(twinExecsN)), "us", "(in-process twins)")
	r.layer("shim.exec_cost_ratio", ratio(shimMS*float64(twinExecsN), twinMS*float64(shimExecsN)), "ratio",
		"(shimmed / in-process engine us per exec)")
	r.layer("daemon.sse_dropped", float64(dropped), "count", "")
	r.layer("daemon.status_coverage_lost", float64(lost), "count", "(status rebuilt from the spec after the restart)")
	tracingOverhead(r, u.rate(), t.rate(), rec)
}
