package core

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pfuzzer/internal/corpus"
	"pfuzzer/internal/subjects/expr"
)

// snapFixture is a real campaign behind the checked-in snapshots under
// testdata/snapshot, cut at 40% of its budget: v1-<name>.json was
// written by the version 1 JSON encoder, v2-<name>.bin by Marshal.
type snapFixture struct {
	name string
	cfg  Config
}

var snapFixtures = []snapFixture{
	{"plain", Config{Seed: 42, MaxExecs: 1000}},
	{"hybrid", Config{Seed: 7, MaxExecs: 1000, MinePhase: true}},
}

// cut steps a fresh fixture campaign to the snapshot point.
func (fx snapFixture) cut() *Campaign {
	c := NewCampaign(expr.New(), fx.cfg)
	at := fx.cfg.MaxExecs * 4 / 10
	for c.Result().Execs < at {
		c.Step(at - c.Result().Execs)
	}
	return c
}

func (fx snapFixture) blob(t testing.TB, version string) []byte {
	t.Helper()
	ext := map[string]string{"v1": ".json", "v2": ".bin"}[version]
	b, err := os.ReadFile(filepath.Join("testdata", "snapshot", version+"-"+fx.name+ext))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sidecarBlob publishes blob as a journal's snapshot sidecar the way
// builds before version 2 did (gzip at the default level) and returns
// what corpus.Open reads back, the bytes a resume decodes.
func sidecarBlob(t *testing.T, blob []byte) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.journal")
	st, err := corpus.Create(path, corpus.Meta{Subject: "expr"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(blob)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(corpus.SnapPath(path), z.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = corpus.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !bytes.Equal(st.Snapshot(), blob) {
		t.Fatal("sidecar did not read back intact")
	}
	return st.Snapshot()
}

// TestSnapshotFixturesResume pins compatibility in both directions:
// the version 1 JSON snapshots written before version 2 existed, read
// back from a sidecar compressed as those builds did, and the
// checked-in version 2 ones, each decode, restore and run out to the
// uninterrupted campaign's fingerprint. State directories left by
// older builds therefore keep resuming.
func TestSnapshotFixturesResume(t *testing.T) {
	for _, fx := range snapFixtures {
		want := New(expr.New(), fx.cfg).Run()
		for _, version := range []string{"v1", "v2"} {
			t.Run(fx.name+"/"+version, func(t *testing.T) {
				blob := fx.blob(t, version)
				if version == "v1" {
					blob = sidecarBlob(t, blob)
				}
				snap, err := UnmarshalSnapshot(blob)
				if err != nil {
					t.Fatal(err)
				}
				c, err := Restore(expr.New(), Config{}, snap)
				if err != nil {
					t.Fatal(err)
				}
				got := stepOut(t, c, 300)
				resultsEqual(t, got, want, version)
				if got.Fingerprint() != want.Fingerprint() {
					t.Errorf("fingerprint %#x, uninterrupted %#x", got.Fingerprint(), want.Fingerprint())
				}
			})
		}
	}
}

// TestSnapshotV2Stable pins the version 2 bytes: a checked-in blob
// re-encodes to itself, and a live cut of the same campaign encodes to
// the same bytes apart from the two wall-clock fields.
func TestSnapshotV2Stable(t *testing.T) {
	for _, fx := range snapFixtures {
		t.Run(fx.name, func(t *testing.T) {
			blob := fx.blob(t, "v2")
			snap, err := UnmarshalSnapshot(blob)
			if err != nil {
				t.Fatal(err)
			}
			again, err := snap.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatal("decoded fixture does not re-encode to its own bytes")
			}
			live := fx.cut().Snapshot()
			live.ElapsedNS, live.ExecElapsedNS = snap.ElapsedNS, snap.ExecElapsedNS
			fresh, err := live.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fresh, blob) {
				t.Errorf("a live cut encodes to %d bytes that differ from the %d-byte fixture", len(fresh), len(blob))
			}
		})
	}
}

// TestSnapshotRetiredKnobsResume pins compatibility with snapshots
// cut by the retired in-campaign parallel engine: testdata's
// v2-workers.bin is the plain fixture campaign run with Workers 4,
// BatchSize 8 and SpecDepth 16, cut at 40%. It decodes with those
// knobs in its header, re-encodes to its own bytes, holds exactly the
// state of the serial campaign's cut, and resumes to the serial
// campaign's fingerprint.
func TestSnapshotRetiredKnobsResume(t *testing.T) {
	fx := snapFixtures[0]
	blob, err := os.ReadFile(filepath.Join("testdata", "snapshot", "v2-workers.bin"))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := UnmarshalSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if c := snap.Config; c.Workers != 4 || c.BatchSize != 8 || c.SpecDepth != 16 {
		t.Fatalf("header knobs workers=%d batch_size=%d spec_depth=%d, want 4, 8, 16", c.Workers, c.BatchSize, c.SpecDepth)
	}
	again, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatal("decoded fixture does not re-encode to its own bytes")
	}
	live := fx.cut().Snapshot()
	live.Config.Workers, live.Config.BatchSize, live.Config.SpecDepth = 4, 8, 16
	live.ElapsedNS, live.ExecElapsedNS = snap.ElapsedNS, snap.ExecElapsedNS
	if fresh, err := live.Marshal(); err != nil || !bytes.Equal(fresh, blob) {
		t.Errorf("the serial cut, with the same header knobs, does not encode to the fixture's bytes (%v)", err)
	}
	c, err := Restore(expr.New(), Config{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	want := New(expr.New(), fx.cfg).Run()
	got := stepOut(t, c, 300)
	resultsEqual(t, got, want, "resumed")
	if got.Fingerprint() != want.Fingerprint() {
		t.Errorf("fingerprint %#x, serial %#x", got.Fingerprint(), want.Fingerprint())
	}
}

// TestSnapshotSharesParents: the parent table keeps one entry per
// parent run, and Restore rebuilds one shared parentFacts per entry,
// so former siblings share blocks and score memo again.
func TestSnapshotSharesParents(t *testing.T) {
	c := snapFixtures[0].cut()
	snap := c.Snapshot()
	if len(snap.ParentTable) == 0 || len(snap.ParentTable) >= len(snap.Queue) {
		t.Fatalf("%d parent entries for %d queued candidates; want sharing", len(snap.ParentTable), len(snap.Queue))
	}
	live := map[*parentFacts]bool{}
	for _, it := range c.f.queue.Dump() {
		if it.Value.parent != nil {
			live[it.Value.parent] = true
		}
	}
	r, err := Restore(expr.New(), Config{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	restored := map[*parentFacts]bool{}
	for _, it := range r.f.queue.Dump() {
		if it.Value.parent != nil {
			restored[it.Value.parent] = true
		}
	}
	if len(restored) != len(live) {
		t.Errorf("restored queue holds %d distinct parents, the live one %d", len(restored), len(live))
	}
}

// TestSnapshotSeenMinusQueue: Seen leaves out every queued input, and
// Restore puts them back, reproducing the arena's inputs exactly.
func TestSnapshotSeenMinusQueue(t *testing.T) {
	c := snapFixtures[1].cut()
	snap := c.Snapshot()
	if len(snap.Seen)+len(snap.Queue) != c.f.inputs.len() {
		t.Fatalf("seen %d + queued %d != arena %d", len(snap.Seen), len(snap.Queue), c.f.inputs.len())
	}
	r, err := Restore(expr.New(), Config{}, snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.f.inputs.len() != c.f.inputs.len() {
		t.Fatalf("restored arena holds %d inputs, want %d", r.f.inputs.len(), c.f.inputs.len())
	}
	for pos := range uint32(c.f.inputs.len()) {
		in := c.f.inputs.input(pos)
		if _, added := r.f.inputs.add(in, 0); added {
			t.Fatalf("restored arena lacks %q", in)
		}
	}
}

// TestRestoreRejectsBadFields: every field Restore depends on is
// checked before the work that depends on it, so a crafted value is an
// error, never a panic or a 2^64-draw fast-forward.
func TestRestoreRejectsBadFields(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fixup func(s *Snapshot)
	}{
		{"huge rng_draws", func(s *Snapshot) { s.RNGDraws = 1<<64 - 1 }},
		{"rng_draws beyond the execs", func(s *Snapshot) { s.RNGDraws = maxDrawsPerExec * uint64(s.Execs+2) }},
		{"negative execs", func(s *Snapshot) { s.Execs = -1 }},
		{"negative elapsed", func(s *Snapshot) { s.ElapsedNS = -5 }},
		{"negative valid exec", func(s *Snapshot) { s.Valids[0].Exec = -1 }},
		{"negative path count", func(s *Snapshot) { s.PathSeen[0].Count = -3 }},
		{"parent index past the table", func(s *Snapshot) { s.Queue[0].Parent = len(s.ParentTable) + 1 }},
		{"negative parent index", func(s *Snapshot) { s.Queue[0].Parent = -1 }},
		{"negative retries", func(s *Snapshot) { s.Queue[1].Retries = -1 }},
		{"retries past int32", func(s *Snapshot) { s.Queue[1].Retries = 1 << 31 }},
		{"replacement outside the input", func(s *Snapshot) { s.Queue[2].Replacement = append(s.Queue[2].Input, 'x') }},
		{"input queued twice", func(s *Snapshot) { s.Queue[3] = s.Queue[0] }},
		{"bad cursor parent", func(s *Snapshot) { s.SCur.Parent = 1 << 40 }},
		{"hybrid fed past the valids", func(s *Snapshot) { s.Hybrid.Fed = len(s.Valids) + 1 }},
		{"unknown hybrid stage", func(s *Snapshot) { s.Hybrid.Stage = 99 }},
		{"unknown phase kind", func(s *Snapshot) { s.Hybrid.PhaseKind = -1 }},
		{"wrong version", func(s *Snapshot) { s.Version = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := snapFixtures[1].cut().Snapshot()
			if s.SCur == nil || s.Hybrid == nil {
				t.Fatal("fixture cut lacks a cursor or hybrid state")
			}
			tc.fixup(s)
			start := time.Now()
			if _, err := Restore(expr.New(), Config{}, s); err == nil {
				t.Fatal("Restore accepted the bad field")
			}
			if el := time.Since(start); el > time.Second {
				t.Errorf("rejecting took %v", el)
			}
		})
	}
}

// TestUnmarshalRejectsMalformed: the decoder fails closed on every
// truncation of a real blob and on each non-canonical form.
func TestUnmarshalRejectsMalformed(t *testing.T) {
	blob := snapFixtures[1].blob(t, "v2")
	for n := 0; n < len(blob); n++ {
		if _, err := UnmarshalSnapshot(blob[:n]); err == nil {
			t.Fatalf("accepted the blob truncated to %d of %d bytes", n, len(blob))
		}
	}
	hdrLen, k := binary.Uvarint(blob[len(snapMagic):])
	hdrAt := len(snapMagic) + k
	hdr := blob[hdrAt : hdrAt+int(hdrLen)]
	rest := blob[hdrAt+int(hdrLen):]
	reheader := func(h []byte) []byte {
		var w snapWriter
		w.b = append(w.b, snapMagic...)
		w.bytes(h)
		return append(w.b, rest...)
	}
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"unknown leading byte", append([]byte{'x'}, blob[1:]...)},
		{"whitespace before JSON", []byte(" {\"version\":1}")},
		{"JSON of an unknown version", []byte(`{"version":3}`)},
		{"trailing byte", append(append([]byte(nil), blob...), 0)},
		{"non-minimal varint", append(append([]byte(snapMagic), 0x80|byte(hdrLen&0x7f), 0x80|byte(hdrLen>>7), 0), blob[hdrAt:]...)},
		{"header with whitespace", reheader(append([]byte(" "), hdr...))},
		{"header of another version", reheader(bytes.Replace(hdr, []byte(`"version":2`), []byte(`"version":1`), 1))},
		{"header with a differently cased key", reheader(bytes.Replace(hdr, []byte(`"execs"`), []byte(`"Execs"`), 1))},
	} {
		if _, err := UnmarshalSnapshot(tc.b); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes to UnmarshalSnapshot and
// Restore (go test -fuzz, seeds: the checked-in version 1 and 2
// snapshots of a plain and a hybrid campaign, malformed variants, and
// the version 2 cut whose header carries the retired parallel-engine
// knobs).
// Neither may panic or hang, and every version 2 blob the decoder
// accepts must re-encode to the same bytes. A campaign Restore builds
// (its input arena from the blob's Seen and queue bytes) must then step
// 64 executions without panicking.
func FuzzSnapshotDecode(f *testing.F) {
	for _, fx := range snapFixtures {
		for _, version := range []string{"v1", "v2"} {
			b := fx.blob(f, version)
			f.Add(b)
			f.Add(b[:len(b)/2])
		}
	}
	f.Add([]byte(snapMagic))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte{})
	workers, err := os.ReadFile(filepath.Join("testdata", "snapshot", "v2-workers.bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(workers)

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := UnmarshalSnapshot(b)
		if err != nil {
			return
		}
		if b[0] != '{' {
			again, err := s.Marshal()
			if err != nil {
				t.Fatalf("accepted blob does not re-encode: %v", err)
			}
			if !bytes.Equal(again, b) {
				t.Fatalf("accepted blob re-encodes to different bytes (%d vs %d)", len(again), len(b))
			}
		}
		if c, err := Restore(expr.New(), Config{}, s); err == nil {
			c.Fingerprint()
			c.Step(64)
		}
	})
}
