package daemon

import (
	"bytes"
	"regexp"
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
