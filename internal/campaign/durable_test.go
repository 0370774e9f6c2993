package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"pfuzzer/internal/core"
	"pfuzzer/internal/corpus"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/shim"
)

// TestMain doubles as a shim child for the lifecycle tests: with
// PFCAMPAIGN_SHIM_PIDS set, the test binary appends its pid to that
// file and serves the shim protocol on stdio like cmd/pshim, running
// no tests.
func TestMain(m *testing.M) {
	if pids := os.Getenv("PFCAMPAIGN_SHIM_PIDS"); pids != "" {
		f, err := os.OpenFile(pids, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
		if err != nil {
			os.Exit(2)
		}
		fmt.Fprintln(f, os.Getpid())
		f.Close()
		if err := shim.Serve(os.Stdin, os.Stdout, shim.ServeConfig{Lookup: registry.NewProgram}); err != nil {
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// durableCases are the campaigns the lifecycle tests run: one plain,
// one hybrid.
var durableCases = []struct {
	name    string
	subject string
	cfg     core.Config
}{
	{"plain", "cjson", core.Config{Seed: 3, MaxExecs: 3000}},
	{"mine", "expr", core.Config{Seed: 5, MaxExecs: 3000, MinePhase: true}},
}

// uninterrupted runs the campaign in process, start to end, and
// returns its valid inputs in discovery order: the corpus every
// journal of it must converge to.
func uninterrupted(t *testing.T, subjectName string, cfg core.Config) [][]byte {
	t.Helper()
	entry, ok := registry.Get(subjectName)
	if !ok {
		t.Fatalf("unknown subject %q", subjectName)
	}
	var valids [][]byte
	cfg.MineLexer = entry.Lexer
	cfg.Events = func(ev core.Event) {
		if ev.Kind == core.EventValid {
			valids = append(valids, append([]byte(nil), ev.Input...))
		}
	}
	camp := core.NewCampaign(entry.New(), cfg)
	for {
		if spent, more := camp.Step(1 << 20); !more || spent == 0 {
			return valids
		}
	}
}

// finish steps d to the end of its campaign and closes it.
func finish(t *testing.T, d *Durable) {
	t.Helper()
	for {
		spent, more, err := d.Step(500)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !more || spent == 0 {
			break
		}
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// journaled returns the valid inputs of the journal at path.
func journaled(t *testing.T, path string) [][]byte {
	t.Helper()
	st, err := corpus.Open(path)
	if err != nil {
		t.Fatalf("Open %s: %v", path, err)
	}
	defer st.Close()
	return st.ValidInputs()
}

func sameCorpus(got, want [][]byte) bool {
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

// copyJournal copies a journal and, if there is one, its snapshot
// sidecar: the files a kill -9 at this instant would leave behind.
func copyJournal(t *testing.T, from, to string) {
	t.Helper()
	for _, p := range [][2]string{{from, to}, {corpus.SnapPath(from), corpus.SnapPath(to)}} {
		b, err := os.ReadFile(p[0])
		if errors.Is(err, os.ErrNotExist) && p[0] != from {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p[1], b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// stepPastCut steps d in small slices until a cadence cut has landed
// and the journal holds valids found after it.
func stepPastCut(t *testing.T, d *Durable) {
	t.Helper()
	atCut := -1
	for {
		_, more, err := d.Step(25)
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		if !more {
			t.Fatalf("campaign ended before valids followed a snapshot")
		}
		n := len(d.Campaign().Result().Valids)
		switch {
		case d.sinceSnap == 0:
			atCut = n
		case atCut >= 0 && n > atCut:
			return
		}
	}
}

// TestDurableResumeAfterKill copies a campaign's journal and sidecar
// mid-run — what kill -9 leaves — and resumes the copy: both the
// original, run on to the end, and the resumed copy must hold the
// uninterrupted run's corpus.
func TestDurableResumeAfterKill(t *testing.T) {
	for _, c := range durableCases {
		t.Run(c.name, func(t *testing.T) {
			want := uninterrupted(t, c.subject, c.cfg)
			dir := t.TempDir()
			orig, killed := filepath.Join(dir, "orig"), filepath.Join(dir, "killed")
			opts := DurableOptions{Journal: orig, Tool: "test", SnapEvery: 100}
			d, err := NewDurable(c.subject, c.cfg, opts)
			if err != nil {
				t.Fatalf("NewDurable: %v", err)
			}
			stepPastCut(t, d)
			copyJournal(t, orig, killed)
			finish(t, d)

			opts.Journal = killed
			r, err := ResumeDurable(core.Config{}, nil, opts)
			if err != nil {
				t.Fatalf("ResumeDurable: %v", err)
			}
			if r.Campaign().Result().Execs == 0 {
				t.Fatalf("resume did not restore the snapshot")
			}
			finish(t, r)
			for _, p := range []string{orig, killed} {
				if got := journaled(t, p); !sameCorpus(got, want) {
					t.Errorf("%s holds %d valids, the uninterrupted run %d", filepath.Base(p), len(got), len(want))
				}
			}
		})
	}
}

// TestDurableResumeWithoutSnapshot resumes a journal killed before its
// first snapshot: without a fresh config the resume fails (and
// releases the journal), with one it starts over and converges.
func TestDurableResumeWithoutSnapshot(t *testing.T) {
	for _, c := range durableCases {
		t.Run(c.name, func(t *testing.T) {
			want := uninterrupted(t, c.subject, c.cfg)
			dir := t.TempDir()
			orig, killed := filepath.Join(dir, "orig"), filepath.Join(dir, "killed")
			d, err := NewDurable(c.subject, c.cfg, DurableOptions{Journal: orig, SnapEvery: 1 << 30})
			if err != nil {
				t.Fatalf("NewDurable: %v", err)
			}
			for len(d.Campaign().Result().Valids) == 0 {
				if _, _, err := d.Step(100); err != nil {
					t.Fatalf("Step: %v", err)
				}
			}
			copyJournal(t, orig, killed)
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, err := os.Stat(corpus.SnapPath(killed)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("the killed journal has a snapshot (stat: %v)", err)
			}

			opts := DurableOptions{Journal: killed, SnapEvery: 1000}
			if _, err := ResumeDurable(core.Config{}, nil, opts); err == nil {
				t.Fatalf("ResumeDurable without a snapshot or a fresh config succeeded")
			}
			fresh := c.cfg
			r, err := ResumeDurable(core.Config{}, &fresh, opts)
			if err != nil {
				t.Fatalf("ResumeDurable with a fresh config: %v", err)
			}
			finish(t, r)
			if got := journaled(t, killed); !sameCorpus(got, want) {
				t.Errorf("resumed journal holds %d valids, the uninterrupted run %d", len(got), len(want))
			}
		})
	}
}

var errInjected = errors.New("injected journal failure")

// failingJournal is a journal whose valid appends fail.
type failingJournal struct{ journal }

func (failingJournal) AppendValid(int, []byte) error { return errInjected }

// TestDurableJournalFailure pins that a failed valid append ends the
// snapshots: Step returns the error, neither Step's cadence nor Close
// publishes another cut, and the sidecar keeps the last good one — a
// later cut would cover a valid the journal lost.
func TestDurableJournalFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	d, err := NewDurable("cjson", core.Config{Seed: 3, MaxExecs: 3000}, DurableOptions{Journal: path, SnapEvery: 100})
	if err != nil {
		t.Fatalf("NewDurable: %v", err)
	}
	for d.sinceSnap != 0 || d.Campaign().Result().Execs == 0 {
		if _, _, err := d.Step(25); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	good, err := os.ReadFile(corpus.SnapPath(path))
	if err != nil {
		t.Fatalf("reading the sidecar: %v", err)
	}

	valids := len(d.Campaign().Result().Valids)
	d.store = failingJournal{d.store}
	if _, _, err := d.Step(2000); !errors.Is(err, errInjected) {
		t.Fatalf("Step over a failing journal = %v, want the injected error", err)
	}
	if len(d.Campaign().Result().Valids) == valids {
		t.Fatalf("no valid was appended while the journal failed")
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	after, err := os.ReadFile(corpus.SnapPath(path))
	if err != nil {
		t.Fatalf("reading the sidecar: %v", err)
	}
	if !bytes.Equal(after, good) {
		t.Fatalf("a snapshot was published after the journal failed")
	}
}

// TestDurableCreateFailure opens fresh campaigns whose journal cannot
// be created — its directory is missing, or another Store holds it —
// with and without a shim: NewDurable must return the error, not
// panic, and must leave no shim child running.
func TestDurableCreateFailure(t *testing.T) {
	dir := t.TempDir()
	held := filepath.Join(dir, "held")
	holder, err := corpus.Create(held, corpus.Meta{Subject: "cjson"})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer holder.Close()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	journals := []struct{ name, path string }{
		{"missing-dir", filepath.Join(dir, "no-such-dir", "j")},
		{"locked", held},
	}
	for _, j := range journals {
		for _, withShim := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/shim=%v", j.name, withShim), func(t *testing.T) {
				opts := DurableOptions{Journal: j.path}
				pids := filepath.Join(t.TempDir(), "pids")
				if withShim {
					t.Setenv("PFCAMPAIGN_SHIM_PIDS", pids)
					opts.Shim = []string{exe}
				}
				d, err := NewDurable("cjson", core.Config{Seed: 1, MaxExecs: 100}, opts)
				if err == nil {
					d.Close()
					t.Fatalf("NewDurable over an uncreatable journal succeeded")
				}
				if j.name == "locked" && !errors.Is(err, corpus.ErrLocked) {
					t.Fatalf("NewDurable = %v, want ErrLocked", err)
				}
				if !withShim {
					return
				}
				b, err := os.ReadFile(pids)
				if err != nil {
					t.Fatalf("no shim child was spawned: %v", err)
				}
				for _, line := range strings.Fields(string(b)) {
					pid, err := strconv.Atoi(line)
					if err != nil {
						t.Fatalf("pid file: %v", err)
					}
					if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
						syscall.Kill(pid, syscall.SIGKILL) //nolint:errcheck // reap the leak
						t.Errorf("shim child %d still running after the failed open (kill 0: %v)", pid, err)
					}
				}
			})
		}
	}
	if err := holder.AppendValid(1, []byte("{}")); err != nil {
		t.Fatalf("the held journal broke: %v", err)
	}
}
