package shim

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pfuzzer/internal/core"
	"pfuzzer/internal/registry"
	"pfuzzer/internal/subject"
	"pfuzzer/internal/trace"
)

// TestMain doubles as the reexec child for the real-subprocess tests:
// with PFSHIM_CHILD set, the test binary serves the shim protocol on
// stdio exactly like cmd/pshim and never runs any tests.
func TestMain(m *testing.M) {
	if os.Getenv("PFSHIM_CHILD") != "" {
		err := Serve(os.Stdin, os.Stdout, ServeConfig{
			Lookup: registry.NewProgram,
			Fault: FaultPlan{
				CrashAt:   envInt("PFSHIM_CRASH_AT"),
				HangAt:    envInt("PFSHIM_HANG_AT"),
				GarbageAt: envInt("PFSHIM_GARBAGE_AT"),
			},
		})
		if err != nil {
			os.Exit(2)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func envInt(key string) int {
	n := 0
	for _, c := range []byte(os.Getenv(key)) {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// pipeLauncher serves the named registry subject over in-memory
// pipes, with optional deterministic faults per child.
func pipeLauncher(fault FaultPlan) PipeLauncher {
	return PipeLauncher{Serve: func(r io.Reader, w io.Writer) error {
		return Serve(r, w, ServeConfig{Lookup: registry.NewProgram, Fault: fault})
	}}
}

// reexecLauncher serves subjects from a real subprocess: the test
// binary re-executed in PFSHIM_CHILD mode.
func reexecLauncher(t *testing.T, fault FaultPlan) CmdLauncher {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	env := append(os.Environ(), "PFSHIM_CHILD=1")
	set := func(key string, v int) {
		if v > 0 {
			env = append(env, key+"="+string(rune('0'+v%10)))
		}
	}
	if fault.CrashAt > 9 || fault.HangAt > 9 || fault.GarbageAt > 9 {
		t.Fatalf("reexecLauncher fault ordinals must be single-digit")
	}
	set("PFSHIM_CRASH_AT", fault.CrashAt)
	set("PFSHIM_HANG_AT", fault.HangAt)
	set("PFSHIM_GARBAGE_AT", fault.GarbageAt)
	return CmdLauncher{Path: exe, Env: env, Stderr: io.Discard}
}

func newPipeHost(t *testing.T, name string, fault FaultPlan, opts Options) *Host {
	t.Helper()
	opts.Subject = name
	h, err := NewHost(pipeLauncher(fault), opts)
	if err != nil {
		t.Fatalf("NewHost(%s): %v", name, err)
	}
	t.Cleanup(h.Close)
	return h
}

// probesFor derives a deterministic probe set for a subject: a small
// in-process campaign's valids plus truncations, byte flips and fixed
// edge cases — rejecting probes matter as much as accepting ones.
func probesFor(t *testing.T, e registry.Entry) [][]byte {
	t.Helper()
	res := core.New(e.New(), core.Config{Seed: 1, MaxExecs: 300}).Run()
	rng := rand.New(rand.NewSource(7))
	probes := [][]byte{nil, []byte(" "), []byte("a"), []byte("=["), []byte("\x00\xff")}
	for _, v := range res.ValidInputs() {
		probes = append(probes, v)
		if len(v) > 0 {
			probes = append(probes, v[:rng.Intn(len(v))])
			flip := append([]byte(nil), v...)
			flip[rng.Intn(len(flip))] ^= 0x25
			probes = append(probes, flip)
		}
		if len(probes) > 60 {
			break
		}
	}
	return probes
}

func recordsIdentical(a, b *trace.Record) bool {
	if a.Exit != b.Exit || a.PathHash != b.PathHash || a.MaxDepth != b.MaxDepth ||
		a.Decided != b.Decided || a.MaxAccess != b.MaxAccess || a.LenUsed != b.LenUsed {
		return false
	}
	if len(a.Comparisons) != len(b.Comparisons) || len(a.EOFs) != len(b.EOFs) ||
		len(a.Blocks) != len(b.Blocks) || len(a.BlockFirst) != len(b.BlockFirst) {
		return false
	}
	for i := range a.Comparisons {
		x, y := &a.Comparisons[i], &b.Comparisons[i]
		if x.Kind != y.Kind || x.Index != y.Index || x.Last != y.Last ||
			x.Matched != y.Matched || x.Stack != y.Stack || x.Seq != y.Seq ||
			!bytes.Equal(x.Actual, y.Actual) || !bytes.Equal(x.Expected, y.Expected) {
			return false
		}
	}
	for i := range a.EOFs {
		if a.EOFs[i] != b.EOFs[i] {
			return false
		}
	}
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			return false
		}
	}
	for id, seq := range a.BlockFirst {
		if b.BlockFirst[id] != seq {
			return false
		}
	}
	return !((a.Edges == nil) != (b.Edges == nil)) && bytes.Equal(a.Edges, b.Edges)
}

// TestTraceIdentity is the bit-identity core of the shim contract:
// for every probe and every recording-option combination an engine
// uses, the replayed out-of-process trace must equal the in-process
// one field for field — sequence numbers, path hash, stack depths,
// edges bitmap and the prefix-decided verdict included.
func TestTraceIdentity(t *testing.T) {
	optionSets := []trace.Options{
		trace.Full(),
		{Comparisons: true},
		{Edges: true},
		{Blocks: true},
		{},
		{Comparisons: true, MaxComparisons: 3},
		{Comparisons: true, Blocks: true, ExecSteps: 17},
	}
	for _, name := range []string{"expr", "paren", "ini"} {
		t.Run(name, func(t *testing.T) {
			e, ok := registry.Get(name)
			if !ok {
				t.Fatalf("subject %s not registered", name)
			}
			h := newPipeHost(t, name, FaultPlan{}, Options{})
			shimmed := h.Subject()
			if shimmed.Name() != name {
				t.Fatalf("shimmed subject is named %q", shimmed.Name())
			}
			if shimmed.Blocks() != e.New().Blocks() {
				t.Fatalf("shimmed subject reports %d blocks, in-process %d",
					shimmed.Blocks(), e.New().Blocks())
			}
			for _, in := range probesFor(t, e) {
				for _, opts := range optionSets {
					want := subject.Execute(e.New(), in, opts)
					got := subject.Execute(shimmed, in, opts)
					if !recordsIdentical(got, want) {
						t.Fatalf("input %q opts %+v: shimmed trace differs from in-process\n got: exit=%d decided=%d comps=%d eofs=%d blocks=%d hash=%#x\nwant: exit=%d decided=%d comps=%d eofs=%d blocks=%d hash=%#x",
							in, opts,
							got.Exit, got.Decided, len(got.Comparisons), len(got.EOFs), len(got.Blocks), got.PathHash,
							want.Exit, want.Decided, len(want.Comparisons), len(want.EOFs), len(want.Blocks), want.PathHash)
					}
				}
			}
		})
	}
}

// TestCampaignFingerprintIdentity drives full campaigns through the
// shim and requires the emitted corpus to be bit-identical to the in-process campaign: same fingerprints, same
// valids at the same execution indices.
func TestCampaignFingerprintIdentity(t *testing.T) {
	budget := 800
	if testing.Short() {
		budget = 300
	}
	for _, name := range []string{"expr", "paren", "ini"} {
		t.Run(name, func(t *testing.T) {
			e, ok := registry.Get(name)
			if !ok {
				t.Fatalf("subject %s not registered", name)
			}
			h := newPipeHost(t, name, FaultPlan{}, Options{})
			wrapped := WrapEntry(e, h)

			cfg := core.Config{Seed: 1, MaxExecs: budget}
			want := core.New(e.New(), cfg).Run()
			got := core.New(wrapped.New(), cfg).Run()
			if got.Fingerprint() != want.Fingerprint() {
				t.Errorf("campaign fingerprint %#x through the shim, %#x in process (%d vs %d valids)",
					got.Fingerprint(), want.Fingerprint(), len(got.Valids), len(want.Valids))
			}
			if st := h.Stats(); st.Crashes+st.Hangs+st.Protocol+st.Unavailable != 0 {
				t.Errorf("healthy campaign reported losses: %+v", st)
			}
		})
	}
}

// TestUnknownSubject: a child that cannot serve the requested subject
// must refuse in-band and NewHost must surface it as an error.
func TestUnknownSubject(t *testing.T) {
	_, err := NewHost(pipeLauncher(FaultPlan{}), Options{Subject: "no-such-subject"})
	if err == nil {
		t.Fatalf("NewHost succeeded for an unregistered subject")
	}
}

// TestSubprocessTraceIdentity runs the identity check against a real
// child process (the reexec'd test binary), covering fork/exec, OS
// pipes and process reaping.
func TestSubprocessTraceIdentity(t *testing.T) {
	e, ok := registry.Get("expr")
	if !ok {
		t.Fatal("expr not registered")
	}
	h, err := NewHost(reexecLauncher(t, FaultPlan{}), Options{Subject: "expr"})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	defer h.Close()
	shimmed := h.Subject()
	for _, in := range [][]byte{nil, []byte("1+2"), []byte("(3*4)+5"), []byte("1+"), []byte("((")} {
		want := subject.Execute(e.New(), in, trace.Full())
		got := subject.Execute(shimmed, in, trace.Full())
		if !recordsIdentical(got, want) {
			t.Errorf("input %q: subprocess trace differs from in-process", in)
		}
	}
}

// TestCloseKillsChildren: Close reaps an idle host's child, later
// executions report unavailable, and a second Close is a no-op.
func TestCloseKillsChildren(t *testing.T) {
	h := newPipeHost(t, "expr", FaultPlan{}, Options{ExecTimeout: time.Minute})
	s := h.Subject()
	for i := 0; i < 3; i++ {
		if exit := subject.Execute(s, []byte("1+1"), trace.Full()).Exit; exit != 0 {
			t.Fatalf("exec %d: exit %d", i, exit)
		}
	}
	h.Close()
	rec := subject.Execute(s, []byte("1+1"), trace.Full())
	if rec.Exit != subject.ExitUnavailable {
		t.Errorf("exec after Close: exit %d, want ExitUnavailable", rec.Exit)
	}
	if d, ok := rec.DecidedPrefix(); ok {
		t.Errorf("exec after Close claims a deciding prefix of %d", d)
	}
	h.Close() // idempotent
}

// TestSharedHostTakesTurns: goroutines sharing one Host's Program take
// turns on its single child. Every trace equals the in-process one,
// one child serves them all, and no execution is lost.
func TestSharedHostTakesTurns(t *testing.T) {
	e, ok := registry.Get("expr")
	if !ok {
		t.Fatal("expr not registered")
	}
	h := newPipeHost(t, "expr", FaultPlan{}, Options{})
	shared := h.Subject()
	probes := probesFor(t, e)
	want := make([]*trace.Record, len(probes))
	for i, in := range probes {
		want[i] = subject.Execute(e.New(), in, trace.Full())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range probes {
					i := (k + g*len(probes)/4) % len(probes) // start each goroutine elsewhere
					if got := subject.Execute(shared, probes[i], trace.Full()); !recordsIdentical(got, want[i]) {
						t.Errorf("goroutine %d input %q: shared-host trace differs from in-process", g, probes[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := h.Stats()
	if st.Spawns != 1 {
		t.Errorf("shared host spawned %d children, want 1", st.Spawns)
	}
	if st.Crashes+st.Hangs+st.Protocol+st.Unavailable != 0 {
		t.Errorf("shared host reported losses: %+v", st)
	}
}

// reapLauncher wraps a launcher and records when a child's Wait has
// returned, and when the first frame after arm is written to a child.
type reapLauncher struct {
	Launcher
	armed   atomic.Bool
	sent    chan struct{}
	sendOne sync.Once
	reaped  atomic.Bool
}

type signalWriter struct {
	io.WriteCloser
	l *reapLauncher
}

func (w signalWriter) Write(b []byte) (int, error) {
	if w.l.armed.Load() {
		w.l.sendOne.Do(func() { close(w.l.sent) })
	}
	return w.WriteCloser.Write(b)
}

func (l *reapLauncher) Launch() (*Conn, error) {
	c, err := l.Launcher.Launch()
	if err != nil {
		return nil, err
	}
	wait := c.Wait
	return &Conn{W: signalWriter{c.W, l}, R: c.R, Kill: c.Kill, Wait: func() error {
		err := wait()
		l.reaped.Store(true)
		return err
	}}, nil
}

// TestCloseWhileInFlight: Close from another goroutine tears down an
// execution in flight on a hanging child long before its deadline.
// The execution reports a lost run, the child is reaped by the time
// Close returns, and a second Close is a no-op.
func TestCloseWhileInFlight(t *testing.T) {
	l := &reapLauncher{Launcher: pipeLauncher(FaultPlan{HangAt: 1}), sent: make(chan struct{})}
	h, err := NewHost(l, Options{Subject: "expr", ExecTimeout: time.Minute})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	l.armed.Store(true)
	exits := make(chan int, 1)
	go func() { exits <- execOnce(h.Subject(), "1+1").Exit }()
	select {
	case <-l.sent: // the EXEC frame is on its way: the execution is in flight
	case <-time.After(10 * time.Second):
		t.Fatal("execution never reached the child")
	}
	h.Close()
	if !l.reaped.Load() {
		t.Error("Close returned before the in-flight child was reaped")
	}
	select {
	case exit := <-exits:
		if exit != subject.ExitCrash && exit != subject.ExitUnavailable {
			t.Errorf("in-flight exec after Close: exit %d, want ExitCrash or ExitUnavailable", exit)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight exec did not return after Close")
	}
	before := h.Stats()
	h.Close()
	if after := h.Stats(); after != before || after.Tripped {
		t.Errorf("second Close changed stats %+v -> %+v", before, after)
	}
}
