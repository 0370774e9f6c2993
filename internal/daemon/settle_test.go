package daemon

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pfuzzer/internal/registry"
)

// campaignSeries renders /metrics and keeps the series labelled with
// campaign id.
func campaignSeries(s *Server, id string) []string {
	var buf bytes.Buffer
	s.writeMetrics(&buf)
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `campaign="`+id+`"`) {
			out = append(out, line)
		}
	}
	return out
}

// TestSettledStatusSurvivesRestart pins that a campaign which settled
// before a restart reports exactly the status, and exactly the
// /metrics series, it reported before: every counter is persisted in
// its spec.
func TestSettledStatusSurvivesRestart(t *testing.T) {
	root := t.TempDir()
	cfg := Config{Root: root, Workers: 2, Slice: 1024}
	s1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	st, err := s1.Submit(Submission{Tenant: "acme", Subject: "cjson", Seed: 5, MaxExecs: 8000})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	before := waitState(t, s1, st.ID, StateDone)
	seriesBefore := campaignSeries(s1, st.ID)
	if err := s1.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if before.CoverageBlocks == 0 {
		t.Fatalf("settled campaign covers no blocks: %+v", before)
	}
	if before.CacheHits+before.CacheMisses != before.Execs {
		t.Fatalf("cache hits %d + misses %d != execs %d", before.CacheHits, before.CacheMisses, before.Execs)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart New: %v", err)
	}
	defer s2.Close()
	after, ok := s2.Campaign(st.ID)
	if !ok {
		t.Fatalf("restarted daemon lost campaign %s", st.ID)
	}
	if after != before {
		t.Fatalf("status changed across the restart:\nbefore %+v\nafter  %+v", before, after)
	}
	seriesAfter := campaignSeries(s2, st.ID)
	if len(seriesAfter) == 0 || strings.Join(seriesAfter, "\n") != strings.Join(seriesBefore, "\n") {
		t.Fatalf("/metrics series changed across the restart:\nbefore %q\nafter  %q", seriesBefore, seriesAfter)
	}
	if err := s2.Cancel(st.ID); err == nil || !strings.Contains(err.Error(), "already done") {
		t.Fatalf("Cancel on a settled campaign = %v, want an already-done error", err)
	}
}

// TestOldFormatSpecLoadsSettled pins that a spec written before the
// coverage, cache and dropped-event counters were persisted still
// loads as a settled entry, those counters at 0.
func TestOldFormatSpecLoadsSettled(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "c000004")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	old := `{"id":"c000004","tenant":"acme","subject":"expr","seed":3,"execs":5000,` +
		`"snap_every":1000,"state":"done","final_execs":5001,"final_valids":12,"final_elapsed_ms":40}`
	if err := os.WriteFile(filepath.Join(dir, specFile), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Root: root})
	got, ok := s.Campaign("c000004")
	if !ok {
		t.Fatalf("old-format spec not loaded")
	}
	want := Status{
		ID: "c000004", Tenant: "acme", Subject: "expr", State: StateDone,
		Execs: 5001, MaxExecs: 5000, Valids: 12, ElapsedMS: 40,
	}
	if got != want {
		t.Fatalf("old-format status = %+v, want %+v", got, want)
	}
}

// TestRetiredCounterSpecLoadsSettled loads a settled spec written by
// a build with the in-campaign parallel engine (testdata: a
// "workers":4 expr campaign): its workers field and its speculation
// counters are ignored, and every other counter comes back.
func TestRetiredCounterSpecLoadsSettled(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "c000001")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(filepath.Join("testdata", "spec-workers.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, specFile), old, 0o644); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Root: root})
	got, ok := s.Campaign("c000001")
	if !ok {
		t.Fatalf("spec not loaded")
	}
	want := Status{
		ID: "c000001", Tenant: "acme", Subject: "expr", State: StateDone,
		Execs: 3001, MaxExecs: 3000, Valids: 5, CoverageBlocks: 13,
		CacheHits: 1168, CacheMisses: 1833, ElapsedMS: 149,
	}
	if got != want {
		t.Fatalf("status = %+v, want %+v", got, want)
	}
}

// TestSettledEnginesCollectable pins that the daemon keeps nothing of
// a settled campaign's engine: after enough campaigns ran to done,
// every engine is garbage.
func TestSettledEnginesCollectable(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, Slice: 512})
	entry, _ := registry.Get("expr")
	const n = 20
	var freed atomic.Int32
	ids := make([]string, n)
	for i := range ids {
		// Submit, with a finalizer set on the engine before the pool
		// can step (and retire) it.
		sub := Submission{Tenant: "default", Subject: "expr", Seed: int64(i + 1), MaxExecs: 2000, SnapEvery: 1000}
		s.mu.Lock()
		s.seq++
		id := formatID(s.seq)
		s.mu.Unlock()
		sp := &Spec{ID: id, Submission: sub, State: StateRunning}
		dir := filepath.Join(s.cfg.Root, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		r, err := s.freshRun(sp, entry, s.tenantFor(sub.Tenant), dir)
		if err != nil {
			t.Fatalf("freshRun: %v", err)
		}
		runtime.SetFinalizer(r.d.Campaign(), func(any) { freed.Add(1) })
		s.adopt(r)
		if err := s.pool.Submit(r.job); err != nil {
			t.Fatalf("pool Submit: %v", err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		waitState(t, s, id, StateDone)
	}
	deadline := time.Now().Add(30 * time.Second)
	for freed.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d settled engines still reachable", n-int(freed.Load()), n)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// FuzzSpecResume feeds arbitrary bytes to the daemon as a campaign's
// spec.json on start-up (seeds: running, settled and old-format
// specs, one written with the retired workers field and speculation
// counters, and malformed ones). New must either fail or load the
// campaign as running, settled or failed — never panic — and Close
// must return.
func FuzzSpecResume(f *testing.F) {
	sub := Submission{Tenant: "acme", Subject: "expr", Seed: 1, MaxExecs: 1000, SnapEvery: 500}
	running, err := json.Marshal(&Spec{ID: "c000001", Submission: sub, State: StateRunning})
	if err != nil {
		f.Fatal(err)
	}
	settled, err := json.Marshal(&Spec{
		ID: "c000001", Submission: sub, State: StateDone,
		FinalExecs: 1001, FinalValids: 7, FinalElapsedMS: 12, FinalCoverageBlocks: 30,
		FinalCacheHits: 400, FinalCacheMisses: 601, FinalDroppedEvents: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(running)
	f.Add(settled)
	f.Add([]byte(`{"id":"c000001","subject":"expr","execs":1000,"state":"cancelled",` +
		`"final_execs":1001,"final_valids":7,"final_elapsed_ms":12}`))
	f.Add(settled[:len(settled)/2])
	f.Add([]byte(`{"id":"c000001","subject":"expr","state":"paused","final_execs":5}`))
	// A settled spec written with the retired workers field and
	// speculation counters; it loads settled.
	retired, err := os.ReadFile(filepath.Join("testdata", "spec-workers.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(retired)

	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "c000001")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, specFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Root: root, Workers: 1, Log: io.Discard})
		if err != nil {
			return // rejected cleanly
		}
		if st, ok := s.Campaign("c000001"); ok {
			switch st.State {
			case StateRunning, StateDone, StateCancelled, StateFailed:
			default:
				t.Errorf("campaign loaded in state %q", st.State)
			}
		}
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
}
