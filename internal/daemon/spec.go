package daemon

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Campaign lifecycle states, persisted in each campaign's spec.
const (
	StateRunning   = "running"   // submitted and owned by the fleet (or due a resume)
	StateDone      = "done"      // ran out of work or budget
	StateCancelled = "cancelled" // cancelled through the API
	StateFailed    = "failed"    // aborted on an internal error (journal IO, restore)
)

// Submission is one campaign request as posted to the API. The zero
// values defer to the daemon's defaults; Subject is the only required
// field (Tenant defaults to "default").
type Submission struct {
	// Tenant names the budget domain this campaign draws from.
	Tenant string `json:"tenant,omitempty"`
	// Subject is the registered subject to fuzz (required).
	Subject string `json:"subject"`
	// Seed seeds the campaign RNG (campaigns are deterministic under
	// it).
	Seed int64 `json:"seed,omitempty"`
	// MaxExecs is the campaign's execution budget (0 = the engine
	// default, 100000).
	MaxExecs int `json:"execs,omitempty"`
	// Workers is accepted and ignored: it selected the in-campaign
	// concurrency of a retired engine, which never changed a
	// campaign's result. Submissions and specs that carry it keep
	// decoding (the API rejects unknown fields).
	Workers int `json:"workers,omitempty"`
	// Mine enables the hybrid grammar-mining campaign (§7.4).
	Mine bool `json:"mine,omitempty"`
	// Shim, when non-empty, drives the subject out of process through
	// this argv (binary + args) speaking the shim protocol
	// (DESIGN.md §14), one child process per campaign.
	Shim []string `json:"shim,omitempty"`
	// SnapEvery overrides the daemon's snapshot cadence for this
	// campaign (0 = daemon default).
	SnapEvery int `json:"snap_every,omitempty"`
}

// Spec is the durable record of one campaign: the submission plus the
// daemon's bookkeeping, persisted as spec.json in the campaign's
// directory and rewritten (atomically, tmp+rename) on every state
// transition. A daemon restarted after kill -9 rebuilds its entire
// campaign table from these files plus the corpus journals beside
// them.
type Spec struct {
	ID string `json:"id"`
	Submission
	State string `json:"state"`
	// Error carries the failure cause for StateFailed.
	Error string `json:"error,omitempty"`
	// The Final* fields record every counter a settled campaign's
	// Status shows, so its table entry — after a restart too — is
	// rebuilt from the spec alone, without reopening (and re-locking)
	// its journal. Specs written before the coverage, cache and
	// dropped-event counters were persisted decode with those at 0;
	// the final_spec_execs/final_spec_hits counters of the retired
	// speculative engine decode and are ignored.
	FinalExecs          int   `json:"final_execs,omitempty"`
	FinalValids         int   `json:"final_valids,omitempty"`
	FinalElapsedMS      int64 `json:"final_elapsed_ms,omitempty"`
	FinalCoverageBlocks int   `json:"final_coverage_blocks,omitempty"`
	FinalCacheHits      int   `json:"final_cache_hits,omitempty"`
	FinalCacheMisses    int   `json:"final_cache_misses,omitempty"`
	FinalDroppedEvents  int   `json:"final_dropped_events,omitempty"`
}

const specFile = "spec.json"

// journalPath returns the corpus journal inside a campaign directory.
func journalPath(dir string) string { return filepath.Join(dir, "corpus") }

// writeSpec persists sp into dir atomically: a torn write can only
// affect the temp file, never the published spec, so a spec read back
// after any crash is either the previous state or the new one.
func writeSpec(dir string, sp *Spec) error {
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return fmt.Errorf("daemon: encoding spec: %w", err)
	}
	tmp := filepath.Join(dir, specFile+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("daemon: writing spec: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, specFile)); err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup of the failed publish
		return fmt.Errorf("daemon: publishing spec: %w", err)
	}
	return nil
}

// readSpec loads a campaign spec from dir.
func readSpec(dir string) (*Spec, error) {
	b, err := os.ReadFile(filepath.Join(dir, specFile))
	if err != nil {
		return nil, err
	}
	var sp Spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("daemon: decoding %s: %w", filepath.Join(dir, specFile), err)
	}
	return &sp, nil
}

// scanSpecs loads every campaign spec under root, sorted by ID, and
// returns the highest numeric ID suffix seen so fresh IDs continue
// the sequence across restarts. Directories without a readable spec
// (a submission cut down by a crash before its spec was published)
// are skipped: no spec means no promises to keep.
func scanSpecs(root string) (specs []*Spec, maxSeq int, err error) {
	ents, err := os.ReadDir(root)
	if err != nil {
		return nil, 0, fmt.Errorf("daemon: scanning %s: %w", root, err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		sp, err := readSpec(filepath.Join(root, e.Name()))
		if err != nil {
			continue
		}
		if sp.ID != e.Name() {
			continue // a copied-in directory; its spec names another campaign
		}
		specs = append(specs, sp)
		if n, ok := seqOf(sp.ID); ok && n > maxSeq {
			maxSeq = n
		}
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].ID < specs[j].ID })
	return specs, maxSeq, nil
}

// seqOf parses the numeric suffix of a daemon-issued campaign ID.
func seqOf(id string) (int, bool) {
	if !strings.HasPrefix(id, "c") {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// formatID renders sequence n as a campaign ID. Zero-padding keeps
// lexical and numeric order identical, so sorted listings read in
// submission order.
func formatID(n int) string { return fmt.Sprintf("c%06d", n) }
