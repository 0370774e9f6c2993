package corpus

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func tempJournal(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "campaign.pfc")
}

// TestRoundTrip pins the journal's basic contract: meta, valids and
// the latest snapshot survive a close/reopen cycle with order and
// bytes intact.
func TestRoundTrip(t *testing.T) {
	path := tempJournal(t)
	meta := Meta{Subject: "cjson", Tool: "pFuzzer", Seed: 42, MaxExecs: 1000}
	s, err := Create(path, meta)
	if err != nil {
		t.Fatal(err)
	}
	valids := []Valid{
		{Exec: 3, Input: []byte("true")},
		{Exec: 17, Input: []byte(`{"a":[null]}`)},
		{Exec: 99, Input: []byte{0x00, 0xff, 0x7f}}, // non-UTF-8 survives
	}
	for _, v := range valids {
		if err := s.AppendValid(v.Exec, v.Input); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendSnapshot([]byte(`{"execs":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSnapshot([]byte(`{"execs":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Meta() != meta {
		t.Errorf("meta = %+v, want %+v", r.Meta(), meta)
	}
	if r.TruncatedBytes() != 0 {
		t.Errorf("clean journal reports %d truncated bytes", r.TruncatedBytes())
	}
	got := r.Valids()
	if len(got) != len(valids) {
		t.Fatalf("valids = %d, want %d", len(got), len(valids))
	}
	for i := range valids {
		if got[i].Exec != valids[i].Exec || !bytes.Equal(got[i].Input, valids[i].Input) {
			t.Errorf("valid[%d] = (%d, %q), want (%d, %q)",
				i, got[i].Exec, got[i].Input, valids[i].Exec, valids[i].Input)
		}
	}
	if string(r.Snapshot()) != `{"execs":2}` {
		t.Errorf("snapshot = %q, want the latest one", r.Snapshot())
	}
}

// TestAppendValidDedups: the journal is the corpus of record, so a
// resumed campaign re-journaling the valids it re-discovers must not
// duplicate them.
func TestAppendValidDedups(t *testing.T) {
	s, err := Create(tempJournal(t), Meta{Subject: "expr", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 3; i++ {
		if err := s.AppendValid(10+i, []byte("same")); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.Valids()); n != 1 {
		t.Errorf("journal holds %d valids, want 1", n)
	}
	if s.Valids()[0].Exec != 10 {
		t.Errorf("dedup kept exec %d, want the first occurrence 10", s.Valids()[0].Exec)
	}
}

// TestRecoveryFromTruncatedTail is the crash-tolerance contract: a
// journal cut anywhere inside its final record reopens with every
// record before the cut intact and the partial tail dropped.
func TestRecoveryFromTruncatedTail(t *testing.T) {
	path := tempJournal(t)
	s, err := Create(path, Meta{Subject: "tinyc", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendValid(1, []byte("{a=1;}")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSnapshot([]byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	mark, err := s.f.Seek(0, 1) // offset of the record about to be cut
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendValid(2, []byte("{while(1);}")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Cut the file at every offset inside the final record, including
	// one byte past the header (a torn frame) and one byte short of
	// complete (a torn checksum).
	for cut := int(mark) + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if r.TruncatedBytes() == 0 {
			t.Errorf("cut at %d: no truncation reported", cut)
		}
		if n := len(r.Valids()); n != 1 {
			t.Errorf("cut at %d: %d valids survive, want 1", cut, n)
		}
		if string(r.Snapshot()) != `{"ok":true}` {
			t.Errorf("cut at %d: snapshot lost", cut)
		}
		// The recovered journal must be appendable and reopen clean.
		if err := r.AppendValid(3, []byte("{b=2;}")); err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r2, err := Open(path)
		if err != nil {
			t.Fatalf("cut at %d, reopen after repair: %v", cut, err)
		}
		if n := len(r2.Valids()); n != 2 {
			t.Errorf("cut at %d: repaired journal holds %d valids, want 2", cut, n)
		}
		if r2.TruncatedBytes() != 0 {
			t.Errorf("cut at %d: repaired journal still reports truncation", cut)
		}
		r2.Close()
	}
}

// TestRecoveryFromCorruptTail: a flipped byte in the final record's
// payload fails its checksum and the record is dropped, not returned
// as data.
func TestRecoveryFromCorruptTail(t *testing.T) {
	path := tempJournal(t)
	s, err := Create(path, Meta{Subject: "ini", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendValid(1, []byte("[s]\n")); err != nil {
		t.Fatal(err)
	}
	mark, _ := s.f.Seek(0, 1)
	if err := s.AppendValid(2, []byte("k=v\n")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	data, _ := os.ReadFile(path)
	data[int(mark)+6] ^= 0xff // a payload byte of the final record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n := len(r.Valids()); n != 1 {
		t.Errorf("%d valids survive a corrupt tail, want 1", n)
	}
	if r.TruncatedBytes() == 0 {
		t.Error("corruption not reported")
	}
}

// TestSnapshotSidecarCorrupt: external corruption of the sidecar is
// caught by gzip's checksum and reads as "no snapshot", never as bad
// engine state; the next publish repairs it.
func TestSnapshotSidecarCorrupt(t *testing.T) {
	path := tempJournal(t)
	s, err := Create(path, Meta{Subject: "expr", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSnapshot([]byte(`{"execs":7}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	if err := os.WriteFile(SnapPath(path), []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Snapshot() != nil {
		t.Errorf("corrupt sidecar returned a snapshot: %q", r.Snapshot())
	}
	if err := r.AppendSnapshot([]byte(`{"execs":8}`)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if string(r2.Snapshot()) != `{"execs":8}` {
		t.Errorf("repaired sidecar holds %q", r2.Snapshot())
	}
}

// writeSidecar gzips size bytes of '{' at level into path's snapshot
// sidecar, streaming them so a bomb never sits in memory uncompressed.
func writeSidecar(t *testing.T, path string, size int64, level int) {
	t.Helper()
	var z bytes.Buffer
	zw, err := gzip.NewWriterLevel(&z, level)
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{'{'}, 64<<10)
	for left := size; left > 0; left -= int64(len(chunk)) {
		zw.Write(chunk[:min(left, int64(len(chunk)))])
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SnapPath(path), z.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSidecarBomb: a sidecar that inflates beyond maxSnapshot
// reads as "no snapshot", and Open allocates about the bound, not the
// inflated size. One exactly at the bound, and one compressed at
// another level than AppendSnapshot's (as older builds wrote them),
// still open.
func TestSnapshotSidecarBomb(t *testing.T) {
	defer func(old int64) { maxSnapshot = old }(maxSnapshot)
	maxSnapshot = 64 << 10
	path := tempJournal(t)
	s, err := Create(path, Meta{Subject: "expr", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	for _, tc := range []struct {
		name  string
		size  int64
		level int
		want  bool
	}{
		{"bomb", 512 * maxSnapshot, gzip.BestCompression, false},
		{"one past the bound", maxSnapshot + 1, gzip.BestSpeed, false},
		{"at the bound", maxSnapshot, gzip.BestSpeed, true},
		{"default level", 1 << 10, gzip.DefaultCompression, true},
	} {
		writeSidecar(t, path, tc.size, tc.level)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r, err := Open(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := r.Snapshot() != nil; got != tc.want {
			t.Errorf("%s: snapshot present = %v, want %v", tc.name, got, tc.want)
		} else if tc.want && !bytes.Equal(r.Snapshot(), bytes.Repeat([]byte{'{'}, int(tc.size))) {
			t.Errorf("%s: snapshot bytes differ", tc.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(maxSnapshot) {
			t.Errorf("%s: Open allocated %d bytes for a %d-byte bound", tc.name, alloc, maxSnapshot)
		}
		r.Close()
	}
}

// TestCreateRemovesStaleSidecar: re-creating a journal must not leave
// a previous campaign's snapshot where -resume would find it.
func TestCreateRemovesStaleSidecar(t *testing.T) {
	path := tempJournal(t)
	s, err := Create(path, Meta{Subject: "expr", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSnapshot([]byte(`{"old":true}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Create(path, Meta{Subject: "expr", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s2.Close()
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Snapshot() != nil {
		t.Errorf("stale sidecar survived Create: %q", r.Snapshot())
	}
}

// TestOpenRejectsForeignFile: not-a-journal files fail loudly instead
// of recovering to an empty corpus.
func TestOpenRejectsForeignFile(t *testing.T) {
	path := tempJournal(t)
	if err := os.WriteFile(path, []byte("#!/bin/sh\necho no\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("Open accepted a non-journal file")
	}
}

// TestSnapshotTmpCleanup: a snapshot publish that fails mid-write must
// not litter the directory with its temp file — and must leave the
// previously published snapshot untouched.
func TestSnapshotTmpCleanup(t *testing.T) {
	path := tempJournal(t)
	s, err := Create(path, Meta{Subject: "expr"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AppendSnapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	// Force the rename to fail by replacing the sidecar path with a
	// non-empty directory.
	snap := SnapPath(path)
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(snap, "block"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSnapshot([]byte("new")); err == nil {
		t.Fatal("AppendSnapshot succeeded renaming over a non-empty directory")
	}
	if _, err := os.Stat(snap + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("failed publish left temp file behind: stat err %v", err)
	}
}

// TestCloseIsSingleShot: the second Close must report the store is
// already closed instead of double-closing the descriptor, and
// appends after Close must fail instead of panicking.
func TestCloseIsSingleShot(t *testing.T) {
	path := tempJournal(t)
	s, err := Create(path, Meta{Subject: "expr"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err == nil {
		t.Error("second Close did not error")
	}
	if err := s.AppendSnapshot([]byte("x")); err == nil {
		t.Error("AppendSnapshot on a closed store did not error")
	}
}

// TestCreateFailsOnUnremovableSidecar: if a stale snapshot sidecar
// cannot be removed, Create must fail loudly — silently keeping it
// would let a later -resume restore a foreign campaign's engine.
func TestCreateFailsOnUnremovableSidecar(t *testing.T) {
	path := tempJournal(t)
	// A non-empty directory at the sidecar path cannot be os.Remove'd.
	if err := os.MkdirAll(filepath.Join(SnapPath(path), "block"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(path, Meta{Subject: "expr"}); err == nil {
		t.Fatal("Create succeeded with an unremovable stale sidecar")
	}
}
