package daemon

import (
	"fmt"
	"io"
	"time"
)

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
		fmt.Fprintf(w, "pfuzzerd_campaigns{state=%q} %d\n", state, byState[state])
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_queue_depth Runnable campaigns (queued plus being stepped).\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_queue_depth gauge\n")
	fmt.Fprintf(w, "pfuzzerd_queue_depth %d\n", s.QueueDepth())

	fmt.Fprintf(w, "# HELP pfuzzerd_campaign_execs Subject executions spent by a campaign (may regress after a crash-restart).\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_campaign_execs gauge\n")
	for _, st := range sts {
		fmt.Fprintf(w, "pfuzzerd_campaign_execs{campaign=%q,tenant=%q,subject=%q} %d\n",
			st.ID, st.Tenant, st.Subject, st.Execs)
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_campaign_execs_per_second Execution rate over active engine time.\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_campaign_execs_per_second gauge\n")
	for _, st := range sts {
		rate := 0.0
		if st.ElapsedMS > 0 {
			rate = float64(st.Execs) / (float64(st.ElapsedMS) / 1000)
		}
		fmt.Fprintf(w, "pfuzzerd_campaign_execs_per_second{campaign=%q,tenant=%q} %.1f\n",
			st.ID, st.Tenant, rate)
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_campaign_valids Valid inputs a campaign has journaled.\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_campaign_valids gauge\n")
	for _, st := range sts {
		fmt.Fprintf(w, "pfuzzerd_campaign_valids{campaign=%q,tenant=%q,subject=%q} %d\n",
			st.ID, st.Tenant, st.Subject, st.Valids)
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_campaign_coverage_blocks Subject blocks covered by a campaign's valids.\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_campaign_coverage_blocks gauge\n")
	for _, st := range sts {
		fmt.Fprintf(w, "pfuzzerd_campaign_coverage_blocks{campaign=%q} %d\n", st.ID, st.CoverageBlocks)
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_campaign_cache_hit_ratio Prefix-decided cache hit fraction (0 when the cache is off).\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_campaign_cache_hit_ratio gauge\n")
	for _, st := range sts {
		ratio := 0.0
		if total := st.CacheHits + st.CacheMisses; total > 0 {
			ratio = float64(st.CacheHits) / float64(total)
		}
		fmt.Fprintf(w, "pfuzzerd_campaign_cache_hit_ratio{campaign=%q} %.4f\n", st.ID, ratio)
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_tenant_execs Executions spent by a tenant across its campaigns (may regress after a crash-restart).\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_tenant_execs gauge\n")
	tens := s.tenantsSorted()
	for _, t := range tens {
		t.mu.Lock()
		spent := t.spent
		t.mu.Unlock()
		fmt.Fprintf(w, "pfuzzerd_tenant_execs{tenant=%q} %d\n", t.name, spent)
	}

	fmt.Fprintf(w, "# HELP pfuzzerd_tenant_budget_remaining Unreserved execution budget (-1 = unlimited).\n")
	fmt.Fprintf(w, "# TYPE pfuzzerd_tenant_budget_remaining gauge\n")
	for _, t := range tens {
		fmt.Fprintf(w, "pfuzzerd_tenant_budget_remaining{tenant=%q} %d\n", t.name, t.remaining())
	}
}
