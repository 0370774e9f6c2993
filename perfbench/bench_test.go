package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"pfuzzer/internal/core"
	"pfuzzer/internal/daemon"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/shim"
	"pfuzzer/internal/subject"
	"pfuzzer/internal/trace"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, 50, 50, 50},
		{100, 90, 90, 10}, // the smallest sample with ten beyond its p90
		{99, 90, 90, 9},   // one short: p90 rests on nine samples
		{120, 90, 108, 12},
		{1, 90, 1, 0},
		{10, 100, 10, 0},
	} {
		got, beyond := percentile(seq(tc.n), tc.p)
		if got != tc.want || beyond != tc.wantBeyond {
			t.Errorf("percentile(n=%d, p%.0f) = %v with %d beyond, want %v with %d",
				tc.n, tc.p, got, beyond, tc.want, tc.wantBeyond)
		}
	}
	if v, beyond := percentile(nil, 50); v != 0 || beyond != 0 {
		t.Errorf("percentile of no samples = %v, %d", v, beyond)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

// runCampaign drives a small campaign to completion on prog.
func runCampaign(prog subject.Program, entry registry.Entry, seed int64, mine bool) *core.Result {
	c := core.NewCampaign(prog, core.Config{Seed: seed, MaxExecs: 3000, MinePhase: mine, MineLexer: entry.Lexer})
	for {
		if spent, more := c.Step(stepSlice); !more || spent == 0 {
			break
		}
	}
	return c.Result()
}

// The Run wrapper must not change what a campaign does: same
// fingerprint as the bare program, and one wrapped call per cache miss.
func TestTracedProgramTransparent(t *testing.T) {
	for _, tc := range []struct {
		subject string
		mine    bool
	}{{"cjson", false}, {"expr", false}, {"ini", false}, {"cjson", true}} {
		entry, _ := registry.Get(tc.subject)
		bare := runCampaign(entry.New(), entry, 7, tc.mine)
		rec := newRecorder()
		wrapped := &tracedProgram{Program: entry.New(), rec: rec, traceID: "t"}
		traced := runCampaign(wrapped, entry, 7, tc.mine)
		if bare.Fingerprint() != traced.Fingerprint() {
			t.Errorf("%s mine=%v: wrapped fingerprint %x != bare %x", tc.subject, tc.mine, traced.Fingerprint(), bare.Fingerprint())
		}
		if wrapped.calls == 0 || int(wrapped.calls) != traced.CacheMisses {
			t.Errorf("%s mine=%v: %d wrapped calls, %d cache misses", tc.subject, tc.mine, wrapped.calls, traced.CacheMisses)
		}
		if want := int(wrapped.calls / runSpanEvery); rec.count() != want {
			t.Errorf("%s mine=%v: %d sampled Run spans, want %d", tc.subject, tc.mine, rec.count(), want)
		}
	}
}

// panicky is a subject that panics on its third execution.
type panicky struct {
	subject.Program
	runs int
}

func (p *panicky) Run(t *trace.Tracer) int {
	if p.runs++; p.runs == 3 {
		panic("boom")
	}
	return p.Program.Run(t)
}

// A campaign whose subject panics fails with an error naming it.
func TestDriveReportsPanic(t *testing.T) {
	entry, _ := registry.Get("expr")
	sp := campaignSpec{"expr", 1, 1000, false}
	b := &built{spec: sp, entry: entry, probe: &probe{}}
	b.camp = core.NewCampaign(&panicky{Program: entry.New()}, core.Config{Seed: sp.Seed, MaxExecs: sp.Execs})
	_, err := drive(b, nil)
	if err == nil || !strings.Contains(err.Error(), sp.String()) || !strings.Contains(err.Error(), "boom") {
		t.Errorf("drive over a panicking subject: %v", err)
	}
}

// The first-progress probe starts the round's campaigns and more of the
// same subjects, and times one slice of each.
func TestFirstProgressProbe(t *testing.T) {
	round, probe := cachedPlan(7, cachedSeeds), cachedPlan(7, cachedFirstSeeds)
	if len(probe) <= len(round) {
		t.Fatalf("probe plan has %d campaigns, the round %d", len(probe), len(round))
	}
	for i, sp := range round {
		if probe[i] != sp {
			t.Fatalf("probe campaign %d is %v, the round's %v", i, probe[i], sp)
		}
	}
	if ms, err := firstProgress(probe[3]); err != nil || ms <= 0 {
		t.Errorf("firstProgress(%v) = %v, %v", probe[3], ms, err)
	}
}

func TestOracleRejectsDoctoredValid(t *testing.T) {
	entry, _ := registry.Get("cjson")
	res := runCampaign(entry.New(), entry, 3, false)
	valids := res.ValidInputs()
	if len(valids) < 2 {
		t.Fatalf("campaign found %d valids; the test needs two", len(valids))
	}
	cover, err := replayValids(entry.New, valids)
	if err != nil || !sameBlocks(cover, res.Coverage) {
		t.Fatalf("honest valids: err=%v, cover %d blocks vs result %d", err, len(cover), len(res.Coverage))
	}

	doctored := append([][]byte(nil), valids...)
	doctored[1] = append(append([]byte(nil), valids[1]...), '}', '}')
	if _, err := replayValids(entry.New, doctored); err == nil {
		t.Errorf("a doctored valid %q was accepted", doctored[1])
	}

	// Dropping a valid that contributed new blocks must show as a
	// coverage mismatch.
	for i, v := range res.Valids {
		if v.NewBlocks == 0 || i == 0 {
			continue
		}
		short := append(append([][]byte(nil), valids[:i]...), valids[i+1:]...)
		cover, err := replayValids(entry.New, short)
		if err == nil && sameBlocks(cover, res.Coverage) {
			t.Errorf("dropping valid #%d (%d new blocks) went unnoticed", i, v.NewBlocks)
		}
		break
	}
}

func TestServicePlan(t *testing.T) {
	argv := []string{"/bin/self", shimServeArg}
	a, b := servicePlan(5, argv), servicePlan(5, argv)
	if len(a) != serviceRound {
		t.Fatalf("plan has %d items, want %d", len(a), serviceRound)
	}
	var shims, mines int
	kinds := map[string]int{} // half, subject and kind -> items
	for i := range a {
		kinds[fmt.Sprintf("half=%d %s shim=%v mine=%v", 2*i/serviceRound, a[i].sub.Subject, len(a[i].sub.Shim) > 0, a[i].sub.Mine)]++
		if a[i].sub.Seed != b[i].sub.Seed || a[i].sub.Subject != b[i].sub.Subject || a[i].twin != b[i].twin {
			t.Fatalf("item %d differs between two plans from one seed", i)
		}
		if a[i].sub.Mine {
			mines++
		}
		if len(a[i].sub.Shim) == 0 {
			continue
		}
		shims++
		tw := a[a[i].twin].sub
		if len(tw.Shim) != 0 || tw.Subject != a[i].sub.Subject || tw.Seed != a[i].sub.Seed || tw.MaxExecs != a[i].sub.MaxExecs {
			t.Errorf("item %d: twin %+v does not mirror %+v", i, tw, a[i].sub)
		}
	}
	if shims != serviceRound/4 || mines != serviceRound/4 {
		t.Errorf("plan has %d shimmed and %d hybrid items, want %d each", shims, mines, serviceRound/4)
	}
	// shimmed, twin, hybrid and plain items for every subject, in
	// each half
	if len(kinds) != 2*3*len(serviceSubjects) {
		t.Errorf("plan has %d half/subject/kind triples, want %d", len(kinds), 2*3*len(serviceSubjects))
	}
	for k, n := range kinds {
		want := serviceRound / 8 / len(serviceSubjects)
		if strings.Contains(k, "shim=false mine=false") {
			want *= 2 // twins and plain items
		}
		if n != want {
			t.Errorf("%s: %d items, want %d", k, n, want)
		}
	}
	if c := servicePlan(6, argv); c[0].sub.Seed == a[0].sub.Seed {
		t.Errorf("plans of different seeds share campaign seeds")
	}
}

// BENCHMARK.json and the metric lists here are one schema.
func TestSchemaMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s #%d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, layerMetrics)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
}

func TestCompleteFillsAndRejects(t *testing.T) {
	r := &report{}
	out := complete(r, []metricDef{{"a", "s"}, {"b", "count"}}, []metric{{name: "b", value: 3, unit: "count"}})
	if len(out) != 2 || out[0].name != "a" || out[0].value != 0 || out[1].value != 3 || len(r.failures) != 0 {
		t.Errorf("complete = %+v, failures %v", out, r.failures)
	}
	complete(r, []metricDef{{"a", "s"}}, []metric{{name: "a", unit: "ms"}, {name: "x", unit: "s"}})
	if len(r.failures) != 2 {
		t.Errorf("wrong unit and unknown metric gave failures %v", r.failures)
	}
}

// Only a campaign known to have settled before the restart may have a
// status without cache counters.
func TestFromSpecExemption(t *testing.T) {
	noCounters := daemon.Status{ID: "c1", Execs: 5000, Valids: 3}
	cases := []struct {
		name      string
		restarted bool
		settled   bool
		status    daemon.Status
		want      bool
	}{
		{"settled before the restart, read after it", true, true, noCounters, true},
		{"read from the first daemon", false, true, noCounters, false},
		{"not settled on the first daemon", true, false, noCounters, false},
		{"has its counters", true, true, daemon.Status{ID: "c1", Execs: 5000, CacheMisses: 5000}, false},
	}
	for _, c := range cases {
		o := observation{id: "c1", restarted: c.restarted, status: c.status}
		if got := o.fromSpec(map[string]bool{"c1": c.settled}); got != c.want {
			t.Errorf("%s: fromSpec = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestMain lets the test binary serve as the self-shim, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == shimServeArg {
		if err := shim.Serve(os.Stdin, os.Stdout, shim.ServeConfig{Lookup: registry.NewProgram}); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A small service round exercises the whole client path (submit, SSE,
// restart, status) and the service oracle; run it under -race.
func TestServiceRound(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cl := &cleanups{}
	defer cl.run()
	e := &env{ctx: ctx, root: t.TempDir(), exe: exe, log: &lockedBuffer{}, cleanup: cl}
	sub := func(subject string, seed int64, mine bool, shimmed bool) daemon.Submission {
		s := daemon.Submission{Subject: subject, Seed: seed, MaxExecs: 3000, Mine: mine}
		if shimmed {
			s.Shim = []string{exe, shimServeArg}
		}
		return s
	}
	plan := []serviceItem{
		{sub("expr", 1, false, true), 1}, {sub("expr", 1, false, false), -1},
		{sub("cjson", 2, true, false), -1}, {sub("ini", 3, false, false), -1},
		{sub("paren", 4, false, true), 5}, {sub("paren", 4, false, false), -1},
		{sub("csv", 5, true, false), -1}, {sub("urlp", 6, false, false), -1},
	}
	rr, err := runRound(e, plan, 0, newRecorder())
	if err != nil {
		t.Fatalf("round: %v\n%s", err, e.log.String())
	}
	r := &report{}
	checkRound(r, plan, rr)
	if len(r.failures) > 0 {
		t.Errorf("oracle failures: %v", r.failures)
	}
	if len(rr.obs) != len(plan) || r.attempted < 5*len(plan) {
		t.Errorf("%d observations, %d checks", len(rr.obs), r.attempted)
	}
}
