package daemon

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// seriesLine is one sample line of the Prometheus text format: a
// label value escapes exactly backslash, double quote and newline.
var seriesLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})? \S+$`)

// TestMetricsLabelEscaping submits a campaign whose tenant name holds
// a tab, a newline, a double quote and a backslash: every /metrics
// line must still be a valid series, the tenant's escaped as the
// format prescribes.
func TestMetricsLabelEscaping(t *testing.T) {
	s := newTestServer(t, Config{})
	tenant := "a\tb\nc\"d\\e"
	st, err := s.Submit(Submission{Tenant: tenant, Subject: "expr", Seed: 1, MaxExecs: 1000})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, st.ID, StateDone)

	var buf bytes.Buffer
	s.writeMetrics(&buf)
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") && !seriesLine.MatchString(line) {
			t.Errorf("invalid series line %q", line)
		}
	}
	want := "pfuzzerd_tenant_execs{tenant=\"a\tb\\nc\\\"d\\\\e\"} "
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("/metrics lacks %q:\n%s", want, buf.String())
	}
}

// parseSample splits one sample line into its metric name and a
// canonical rendering of its label set (labels sorted by name, values
// unescaped), so two samples of one series compare equal however
// their labels are ordered.
func parseSample(line string) (name, labels string, ok bool) {
	i := strings.IndexAny(line, "{ ")
	if i <= 0 {
		return "", "", false
	}
	name, rest := line[:i], line[i:]
	var pairs []string
	if rest[0] == '{' {
		rest = rest[1:]
		for rest != "" && rest[0] != '}' {
			eq := strings.Index(rest, `="`)
			if eq <= 0 {
				return "", "", false
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			for rest != "" && rest[0] != '"' {
				if rest[0] == '\\' && len(rest) > 1 {
					rest = rest[1:]
				}
				val.WriteByte(rest[0])
				rest = rest[1:]
			}
			if rest == "" {
				return "", "", false
			}
			pairs = append(pairs, key+"\x00"+val.String())
			rest = strings.TrimPrefix(rest[1:], ",")
		}
		if rest == "" {
			return "", "", false
		}
		rest = rest[1:]
	}
	if !strings.HasPrefix(rest, " ") {
		return "", "", false
	}
	if _, err := strconv.ParseFloat(rest[1:], 64); err != nil {
		return "", "", false
	}
	sort.Strings(pairs)
	return name, strings.Join(pairs, "\x01"), true
}

// TestMetricsExposition parses the whole /metrics output of a daemon
// holding running, settled and failed campaigns of two tenants, and
// checks the exposition format's structure: every family has exactly
// one HELP and one TYPE line, both before its first sample; every
// sample belongs to a declared family; and no series (name plus label
// set) appears twice.
func TestMetricsExposition(t *testing.T) {
	root := t.TempDir()
	for _, sp := range []*Spec{
		{ID: "c000001", State: StateDone, FinalExecs: 1000, FinalValids: 3,
			Submission: Submission{Tenant: "acme", Subject: "expr", MaxExecs: 1000}},
		// A running campaign whose shim this daemon does not allow
		// fails on resume.
		{ID: "c000002", State: StateRunning,
			Submission: Submission{Tenant: "globex", Subject: "expr", Shim: []string{"/bin/true"}}},
	} {
		dir := filepath.Join(root, sp.ID)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeSpec(dir, sp); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, Config{Root: root, TenantBudget: 1 << 40, Log: io.Discard})
	for _, sub := range []Submission{
		{Tenant: "acme", Subject: "cjson", Seed: 1, MaxExecs: 50_000_000},
		{Tenant: "globex", Subject: "ini", Seed: 2, MaxExecs: 50_000_000},
	} {
		if _, err := s.Submit(sub); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	states := map[string]int{}
	for _, st := range s.Campaigns() {
		states[st.State]++
	}
	if states[StateRunning] != 2 || states[StateDone] != 1 || states[StateFailed] != 1 {
		t.Fatalf("campaign states %v, want 2 running, 1 done, 1 failed", states)
	}

	var buf bytes.Buffer
	s.writeMetrics(&buf)
	help, typ := map[string]int{}, map[string]string{}
	sampled := map[string]bool{}
	series := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# "); ok {
			directive, rest, _ := strings.Cut(rest, " ")
			name, text, _ := strings.Cut(rest, " ")
			if sampled[name] {
				t.Errorf("# %s %s after the family's first sample", directive, name)
			}
			switch directive {
			case "HELP":
				help[name]++
			case "TYPE":
				if _, dup := typ[name]; dup {
					t.Errorf("family %s has more than one # TYPE", name)
				}
				typ[name] = text
			}
			continue
		}
		name, labels, ok := parseSample(line)
		if !ok {
			t.Errorf("unparsable sample line %q", line)
			continue
		}
		if typ[name] == "" || help[name] == 0 {
			t.Errorf("sample %q belongs to no declared family", line)
		}
		sampled[name] = true
		if key := name + "\x02" + labels; series[key] {
			t.Errorf("series %q appears twice", line)
		} else {
			series[key] = true
		}
	}
	for name, n := range help {
		if n != 1 {
			t.Errorf("family %s has %d # HELP lines, want 1", name, n)
		}
		if typ[name] == "" {
			t.Errorf("family %s has a # HELP but no # TYPE", name)
		}
	}
	for name := range typ {
		if help[name] == 0 {
			t.Errorf("family %s has a # TYPE but no # HELP", name)
		}
	}
	for _, want := range []string{"pfuzzerd_campaign_execs", "pfuzzerd_tenant_execs", "pfuzzerd_tenant_budget_remaining"} {
		if !sampled[want] {
			t.Errorf("family %s has no samples:\n%s", want, buf.String())
		}
	}
}
