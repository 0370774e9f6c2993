package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pfuzzer/internal/core"
	"pfuzzer/internal/corpus"
	"pfuzzer/internal/registry"
)

// TestMain doubles as the reexec child for the crash-recovery test:
// with PFUZZERD_CHILD set, the test binary becomes a pfuzzerd — it
// serves the daemon API on a loopback port until it is killed, and
// never runs any tests.
func TestMain(m *testing.M) {
	if os.Getenv("PFUZZERD_CHILD") != "" {
		runChild()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// newTestServer starts a daemon over a fresh state directory.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Root == "" {
		cfg.Root = t.TempDir()
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.Slice == 0 {
		cfg.Slice = 1024
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// waitState polls until the campaign reaches the wanted state.
func waitState(t *testing.T, s *Server, id, want string) Status {
	t.Helper()
	// Generous: the race detector slows the engine by an order of
	// magnitude.
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, ok := s.Campaign(id)
		if !ok {
			t.Fatalf("campaign %s vanished", id)
		}
		if st.State == want {
			return st
		}
		if st.State != StateRunning {
			t.Fatalf("campaign %s reached %q (error %q), want %q", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still %q after 120s, want %q", id, st.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// referenceValids runs the same campaign uninterrupted in-process and
// returns its valid inputs in discovery order — the corpus any
// daemon-run (or crash-resumed) journal must converge to.
func referenceValids(t *testing.T, sub Submission) [][]byte {
	t.Helper()
	entry, ok := registry.Get(sub.Subject)
	if !ok {
		t.Fatalf("unknown subject %q", sub.Subject)
	}
	var valids [][]byte
	cfg := core.Config{
		Seed: sub.Seed, MaxExecs: sub.MaxExecs,
		MinePhase: sub.Mine, MineLexer: entry.Lexer,
		Events: func(ev core.Event) {
			if ev.Kind == core.EventValid {
				valids = append(valids, append([]byte(nil), ev.Input...))
			}
		},
	}
	camp := core.NewCampaign(entry.New(), cfg)
	for {
		spent, more := camp.Step(1 << 20)
		if !more || spent == 0 {
			break
		}
	}
	return valids
}

func sameCorpus(got [][]byte, want [][]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			return false
		}
	}
	return true
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s := newTestServer(t, Config{SnapEvery: 2000})
	sub := Submission{Subject: "expr", Seed: 3, MaxExecs: 20000}
	st, err := s.Submit(sub)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID == "" || st.State != StateRunning {
		t.Fatalf("initial status = %+v", st)
	}
	fin := waitState(t, s, st.ID, StateDone)
	if fin.Valids == 0 {
		t.Fatalf("campaign finished with no valids: %+v", fin)
	}
	if fin.Execs < sub.MaxExecs {
		t.Fatalf("campaign retired at %d execs, budget %d", fin.Execs, sub.MaxExecs)
	}

	// The journal is closed (lock released) and holds exactly the
	// corpus the uninterrupted reference run produces.
	store, err := corpus.Open(filepath.Join(s.cfg.Root, st.ID, "corpus"))
	if err != nil {
		t.Fatalf("Open journal: %v", err)
	}
	defer store.Close()
	if want := referenceValids(t, sub); !sameCorpus(store.ValidInputs(), want) {
		t.Fatalf("journal corpus diverged: %d valids, want %d", len(store.Valids()), len(want))
	}
	if store.Snapshot() == nil {
		t.Fatalf("no final snapshot in the journal")
	}
}

func TestCancelStopsAndJournals(t *testing.T) {
	s := newTestServer(t, Config{Slice: 256})
	st, err := s.Submit(Submission{Subject: "cjson", Seed: 1, MaxExecs: 50_000_000})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Let it actually run a bit so the cancel lands mid-campaign.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := s.Campaign(st.ID)
		if cur.Execs > 2000 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never advanced")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	fin := waitState(t, s, st.ID, StateCancelled)
	if fin.Execs >= 50_000_000 {
		t.Fatalf("cancelled campaign ran out its whole budget")
	}
	if err := s.Cancel(st.ID); err == nil {
		t.Fatalf("cancelling a settled campaign succeeded")
	}
	// Its journal closed with a final snapshot: resumable by hand.
	store, err := corpus.Open(filepath.Join(s.cfg.Root, st.ID, "corpus"))
	if err != nil {
		t.Fatalf("Open journal: %v", err)
	}
	defer store.Close()
	if store.Snapshot() == nil {
		t.Fatalf("cancelled campaign left no snapshot")
	}
}

func TestTenantBudgetEnforced(t *testing.T) {
	s := newTestServer(t, Config{TenantBudget: 6000, Slice: 512})
	a, err := s.Submit(Submission{Tenant: "acme", Subject: "expr", Seed: 1, MaxExecs: 100000})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	b, err := s.Submit(Submission{Tenant: "acme", Subject: "paren", Seed: 2, MaxExecs: 100000})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	fa := waitState(t, s, a.ID, StateDone)
	fb := waitState(t, s, b.ID, StateDone)
	// Both campaigns drew from one 6000-exec budget; each engine may
	// overshoot its last granted slice by an in-flight pair only.
	if total := fa.Execs + fb.Execs; total > 6000+1024 {
		t.Fatalf("tenant spent %d execs against a budget of 6000", total)
	}
	if _, err := s.Submit(Submission{Tenant: "acme", Subject: "expr", MaxExecs: 1000}); err == nil {
		t.Fatalf("submit against an exhausted tenant budget succeeded")
	}
	// Other tenants are unaffected.
	c, err := s.Submit(Submission{Tenant: "globex", Subject: "expr", Seed: 1, MaxExecs: 3000})
	if err != nil {
		t.Fatalf("Submit for a fresh tenant: %v", err)
	}
	waitState(t, s, c.ID, StateDone)
}

func TestGracefulCloseResumes(t *testing.T) {
	root := t.TempDir()
	sub := Submission{Subject: "expr", Seed: 9, MaxExecs: 15000, SnapEvery: 1000}
	want := referenceValids(t, sub)

	s1, err := New(Config{Root: root, Workers: 2, Slice: 512})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := s1.Submit(sub)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Close mid-run: the campaign parks with a snapshot, spec still
	// running.
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := s1.Campaign(st.ID)
		if cur.Execs > 3000 || cur.State != StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never advanced")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2, err := New(Config{Root: root, Workers: 2, Slice: 512})
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	defer s2.Close()
	cur, ok := s2.Campaign(st.ID)
	if !ok {
		t.Fatalf("restarted daemon lost campaign %s", st.ID)
	}
	if cur.State != StateRunning && cur.State != StateDone {
		t.Fatalf("resumed campaign in state %q", cur.State)
	}
	fin := waitState(t, s2, st.ID, StateDone)
	if fin.Execs < sub.MaxExecs {
		t.Fatalf("resumed campaign retired at %d execs, budget %d", fin.Execs, sub.MaxExecs)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	store, err := corpus.Open(filepath.Join(root, st.ID, "corpus"))
	if err != nil {
		t.Fatalf("Open journal: %v", err)
	}
	defer store.Close()
	if !sameCorpus(store.ValidInputs(), want) {
		t.Fatalf("resumed corpus diverged: %d valids, want %d", len(store.Valids()), len(want))
	}
}

// TestMetricsMultiTenant pins the acceptance shape: two tenants'
// campaigns running concurrently, with /metrics reporting execs,
// rates, cache hit ratio, valids, queue depth and per-tenant budget.
func TestMetricsMultiTenant(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, Slice: 512, TenantBudget: 40_000_000})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := make([]string, 2)
	for i, sub := range []Submission{
		{Tenant: "acme", Subject: "cjson", Seed: 1, MaxExecs: 20_000_000},
		{Tenant: "globex", Subject: "ini", Seed: 2, MaxExecs: 20_000_000},
	} {
		body, _ := json.Marshal(sub)
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /campaigns: %v", err)
		}
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("POST /campaigns = %d: %+v", resp.StatusCode, st)
		}
		ids[i] = st.ID
	}

	// Wait until both are demonstrably running concurrently.
	deadline := time.Now().Add(30 * time.Second)
	for {
		a, _ := s.Campaign(ids[0])
		b, _ := s.Campaign(ids[1])
		if a.Execs > 0 && b.Execs > 0 && a.State == StateRunning && b.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaigns not concurrently running: %+v / %+v", a, b)
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		fmt.Sprintf("pfuzzerd_campaign_execs{campaign=%q,tenant=\"acme\",subject=\"cjson\"}", ids[0]),
		fmt.Sprintf("pfuzzerd_campaign_execs{campaign=%q,tenant=\"globex\",subject=\"ini\"}", ids[1]),
		fmt.Sprintf("pfuzzerd_campaign_execs_per_second{campaign=%q", ids[0]),
		fmt.Sprintf("pfuzzerd_campaign_cache_hit_ratio{campaign=%q", ids[0]),
		fmt.Sprintf("pfuzzerd_campaign_valids{campaign=%q", ids[1]),
		"pfuzzerd_campaigns{state=\"running\"} 2",
		"pfuzzerd_queue_depth",
		"pfuzzerd_tenant_budget_remaining{tenant=\"acme\"}",
		"pfuzzerd_tenant_budget_remaining{tenant=\"globex\"}",
		"pfuzzerd_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	// Cancel both over HTTP; statuses and the list must settle.
	for _, id := range ids {
		resp, err := http.Post(ts.URL+"/campaigns/"+id+"/cancel", "", nil)
		if err != nil {
			t.Fatalf("POST cancel: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("cancel %s = %d", id, resp.StatusCode)
		}
		waitState(t, s, id, StateCancelled)
	}
	var listed []Status
	resp2, err := http.Get(ts.URL + "/campaigns")
	if err != nil {
		t.Fatalf("GET /campaigns: %v", err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&listed); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	if len(listed) != 2 {
		t.Fatalf("listed %d campaigns, want 2", len(listed))
	}
}

// TestEventStream drives the SSE endpoint end to end: a subscriber
// attached mid-campaign sees live events (every step of a
// cache-enabled campaign publishes a cache report, so the stream is
// guaranteed traffic), a cancel lands, and the stream ends with the
// terminal retired event, then EOF.
func TestEventStream(t *testing.T) {
	s := newTestServer(t, Config{Slice: 512})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := s.Submit(Submission{Subject: "cjson", Seed: 4, MaxExecs: 50_000_000})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	resp, err := http.Get(ts.URL + "/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events int
	var last WireEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev WireEvent
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		events++
		last = ev
		if events == 3 && last.Kind != "retired" {
			// Live traffic confirmed; now end the campaign under the
			// subscriber and expect the terminal event.
			if err := s.Cancel(st.ID); err != nil {
				t.Fatalf("Cancel: %v", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if events < 3 {
		t.Fatalf("stream carried only %d events", events)
	}
	if last.Kind != "retired" || last.State != StateCancelled {
		t.Fatalf("stream ended with %+v, want the retired event", last)
	}
	waitState(t, s, st.ID, StateCancelled)
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		body string
		code int
	}{
		{`{"subject":"nosuch"}`, http.StatusUnprocessableEntity},
		{`{}`, http.StatusBadRequest},
		{`{"subject":"expr","bogus":1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Fatalf("submit %q = %d, want %d", tc.body, resp.StatusCode, tc.code)
		}
	}
	resp, err := http.Get(ts.URL + "/campaigns/c999999")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown campaign = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
}

// TestSubmitIgnoresWorkers pins compatibility with clients of the
// retired in-campaign parallel engine: a submission carrying
// "workers" is accepted over HTTP (the API rejects unknown fields,
// so dropping the field would turn those clients' requests into 400s)
// and runs exactly the campaign the same submission without it runs.
func TestSubmitIgnoresWorkers(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var fin [2]Status
	for i, body := range []string{
		`{"subject":"expr","seed":3,"execs":4000,"workers":4}`,
		`{"subject":"expr","seed":3,"execs":4000}`,
	} {
		resp, err := http.Post(ts.URL+"/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit %s = %d (%v)", body, resp.StatusCode, err)
		}
		fin[i] = waitState(t, s, st.ID, StateDone)
	}
	var corpora [2][][]byte
	for i, st := range fin {
		store, err := corpus.Open(filepath.Join(s.cfg.Root, st.ID, "corpus"))
		if err != nil {
			t.Fatalf("Open journal: %v", err)
		}
		corpora[i] = store.ValidInputs()
		store.Close()
		fin[i].ID, fin[i].ElapsedMS = "", 0
	}
	if fin[0] != fin[1] {
		t.Errorf("status with workers %+v, without %+v", fin[0], fin[1])
	}
	if !sameCorpus(corpora[0], corpora[1]) {
		t.Errorf("journal corpus with workers (%d valids) differs from without (%d)", len(corpora[0]), len(corpora[1]))
	}
}

// TestShimAllowlist pins the shim security gate: the shim field is an
// arbitrary argv the daemon executes on behalf of an unauthenticated
// client, so a binary the operator has not allowlisted must be
// rejected at submission — errors.Is-classifiable and HTTP 403 —
// while an allowlisted binary passes the gate.
func TestShimAllowlist(t *testing.T) {
	s := newTestServer(t, Config{})
	if _, err := s.Submit(Submission{Subject: "expr", Shim: []string{"/bin/true"}}); !errors.Is(err, ErrShimDenied) {
		t.Fatalf("Submit with unlisted shim = %v, want ErrShimDenied", err)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/campaigns", "application/json",
		strings.NewReader(`{"subject":"expr","shim":["/bin/true"]}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("submit with unlisted shim = %d, want %d", resp.StatusCode, http.StatusForbidden)
	}

	// Allowlisted, the argv reaches the shim layer: /bin/true speaks
	// no shim protocol, so the submission fails at the handshake — any
	// error but a denial proves the gate opened.
	s2 := newTestServer(t, Config{AllowShims: []string{"/bin/true"}, Log: io.Discard})
	_, err = s2.Submit(Submission{Subject: "expr", Shim: []string{"/bin/true"}})
	if err == nil || errors.Is(err, ErrShimDenied) {
		t.Fatalf("Submit with allowlisted shim = %v, want a handshake failure, not a denial", err)
	}
}

// TestShimAllowlistGatesResume pins the restart half of the gate: a
// persisted running campaign whose shim is not in the (possibly
// tightened) allowlist of the daemon resuming it must fail loudly,
// never execute the argv.
func TestShimAllowlistGatesResume(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "c000001")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	sp := &Spec{ID: "c000001", State: StateRunning}
	sp.Subject = "expr"
	sp.Shim = []string{"/bin/true"}
	if err := writeSpec(dir, sp); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Config{Root: root, Log: io.Discard})
	st, ok := s.Campaign("c000001")
	if !ok {
		t.Fatal("persisted campaign missing from the table")
	}
	if st.State != StateFailed {
		t.Fatalf("resume with unlisted shim: state %q, want %q", st.State, StateFailed)
	}
	if !strings.Contains(st.Error, ErrShimDenied.Error()) {
		t.Fatalf("resume with unlisted shim: error %q does not record the denial", st.Error)
	}
}
