package daemon

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// labelEscaper escapes a label value the way the Prometheus text
// format allows: only backslash, double quote and newline, each by a
// backslash. (Go's %q would write escapes such as \t, which the
// format rejects.)
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// label renders a quoted label value. Tenant names arrive unvalidated
// from the API, so every label goes through it.
func label(v string) string { return `"` + labelEscaper.Replace(v) + `"` }

// writeMetrics renders the Prometheus text exposition (hand-rolled;
// the daemon takes no dependencies). Campaigns are emitted in
// submission order and tenants sorted by name, so consecutive scrapes
// diff cleanly.
//
// Per-campaign work totals (execs, valids, spec execs/hits) and
// per-tenant spend are typed gauge, not counter: a campaign killed
// before its first snapshot resumes from zero and re-climbs the
// replayed prefix, so the series is not monotonic across daemon
// restarts and rate()/increase() would double-count it.
func (s *Server) writeMetrics(w io.Writer) {
	sts := s.Campaigns()

	fmt.Fprintf(w, "# HELP pfuzzerd_uptime_seconds Seconds since the daemon started.\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_uptime_seconds gauge\n")
	fmt.Fprintf(w, "pfuzzerd_uptime_seconds %.3f\n", time.Since(s.started).Seconds())

	fmt.Fprintf(w, "# HELP pfuzzerd_campaigns Campaigns known to the daemon, by state.\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_campaigns gauge\n")
	byState := map[string]int{}
	for _, st := range sts {
		byState[st.State]++
	}
	for _, state := range []string{StateRunning, StateDone, StateCancelled, StateFailed} {
		fmt.Fprintf(w, "pfuzzerd_campaigns{state=%s} %d\n", label(state), byState[state])
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_queue_depth Runnable campaigns (queued plus being stepped).\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_queue_depth gauge\n")
	fmt.Fprintf(w, "pfuzzerd_queue_depth %d\n", s.QueueDepth())

	fmt.Fprintf(w, "# HELP pfuzzerd_campaign_execs Subject executions spent by a campaign (may regress after a crash-restart).\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_campaign_execs gauge\n")
	for _, st := range sts {
		fmt.Fprintf(w, "pfuzzerd_campaign_execs{campaign=%s,tenant=%s,subject=%s} %d\n",
			label(st.ID), label(st.Tenant), label(st.Subject), st.Execs)
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_campaign_execs_per_second Execution rate over active engine time.\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_campaign_execs_per_second gauge\n")
	for _, st := range sts {
		rate := 0.0
		if st.ElapsedMS > 0 {
			rate = float64(st.Execs) / (float64(st.ElapsedMS) / 1000)
		}
		fmt.Fprintf(w, "pfuzzerd_campaign_execs_per_second{campaign=%s,tenant=%s} %.1f\n",
			label(st.ID), label(st.Tenant), rate)
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_campaign_valids Valid inputs a campaign has journaled.\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_campaign_valids gauge\n")
	for _, st := range sts {
		fmt.Fprintf(w, "pfuzzerd_campaign_valids{campaign=%s,tenant=%s,subject=%s} %d\n",
			label(st.ID), label(st.Tenant), label(st.Subject), st.Valids)
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_campaign_coverage_blocks Subject blocks covered by a campaign's valids.\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_campaign_coverage_blocks gauge\n")
	for _, st := range sts {
		fmt.Fprintf(w, "pfuzzerd_campaign_coverage_blocks{campaign=%s} %d\n", label(st.ID), st.CoverageBlocks)
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_campaign_cache_hit_ratio Prefix-decided cache hit fraction (0 when the cache is off).\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_campaign_cache_hit_ratio gauge\n")
	for _, st := range sts {
		ratio := 0.0
		if total := st.CacheHits + st.CacheMisses; total > 0 {
			ratio = float64(st.CacheHits) / float64(total)
		}
		fmt.Fprintf(w, "pfuzzerd_campaign_cache_hit_ratio{campaign=%s} %.4f\n", label(st.ID), ratio)
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_tenant_execs Executions spent by a tenant across its campaigns (may regress after a crash-restart).\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_tenant_execs gauge\n")
	tens := s.tenantsSorted()
	for _, t := range tens {
		t.mu.Lock()
		spent := t.spent
		t.mu.Unlock()
		fmt.Fprintf(w, "pfuzzerd_tenant_execs{tenant=%s} %d\n", label(t.name), spent)
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_tenant_budget_remaining Unreserved execution budget (-1 = unlimited).\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_tenant_budget_remaining gauge\n")
	for _, t := range tens {
		fmt.Fprintf(w, "pfuzzerd_tenant_budget_remaining{tenant=%s} %d\n", label(t.name), t.remaining())
	}
}
