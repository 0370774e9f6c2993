// Parent side of the protocol: a Host owns one connected child and
// turns its failures — crash, hang, garbage, refusal to spawn — into
// per-execution outcomes the engines already know how to absorb. A
// failed child is replaced by a fresh one. A campaign executes
// serially, so one child serves it; concurrent callers sharing a
// Program take turns on that child.
package shim

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Outcome classifies one out-of-process execution attempt.
type Outcome uint8

const (
	// OutcomeOK: the child answered with a complete trace and result.
	OutcomeOK Outcome = iota
	// OutcomeCrash: the child died or spoke garbage mid-execution.
	OutcomeCrash
	// OutcomeHang: the execution overran ExecTimeout and was killed.
	OutcomeHang
	// OutcomeUnavailable: no child could be obtained (circuit breaker
	// open, spawn failure, or host closed).
	OutcomeUnavailable
)

// Options configures a Host. The zero value of every field except
// Subject picks a sensible default.
type Options struct {
	// Subject is the subject name requested in the handshake. Required.
	Subject string
	// ExecTimeout bounds one execution round-trip; a child that takes
	// longer is killed and the execution reported as a hang.
	// Default 2s.
	ExecTimeout time.Duration
	// HandshakeTimeout bounds spawn-to-hello. Default 5s.
	HandshakeTimeout time.Duration
	// RestartBackoff is the delay before the first respawn after a
	// failure; it doubles per consecutive failure up to MaxBackoff.
	// Defaults 10ms and 1s.
	RestartBackoff time.Duration
	MaxBackoff     time.Duration
	// MaxFailures trips the circuit breaker: after this many
	// consecutive failed executions or spawns the Host stops spawning
	// and reports every execution unavailable. Default 16.
	MaxFailures int
}

func (o *Options) fill() {
	if o.ExecTimeout <= 0 {
		o.ExecTimeout = 2 * time.Second
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
	if o.RestartBackoff <= 0 {
		o.RestartBackoff = 10 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = time.Second
	}
	if o.MaxFailures <= 0 {
		o.MaxFailures = 16
	}
}

// Stats is a snapshot of a Host's lifetime counters.
type Stats struct {
	// Execs counts execution attempts that reached a child.
	Execs uint64
	// Crashes counts executions lost to a dying child, Protocol those
	// lost to undecodable frames, Hangs those killed at the deadline,
	// Unavailable those refused without reaching a child.
	Crashes     uint64
	Protocol    uint64
	Hangs       uint64
	Unavailable uint64
	// Spawns and SpawnFails count child launches.
	Spawns     uint64
	SpawnFails uint64
	// Tripped reports whether the circuit breaker has opened.
	Tripped bool
}

var (
	errClosed  = errors.New("shim: host closed")
	errTripped = errors.New("shim: circuit breaker open")
)

// opKind discriminates buffered trace events.
type opKind uint8

const (
	opCmp opKind = iota
	opEOF
	opBlocks
)

// op is one decoded trace event, buffered until the full execution
// has arrived: a child that dies mid-stream must leave the parent's
// tracer untouched, not holding a pipe-buffering-dependent partial
// trace.
type op struct {
	kind   opKind
	cmp    cmpMsg
	eof    eofMsg
	blocks []uint32
}

// proc is one connected child plus the parent-side per-execution
// scratch. Only the caller holding Host.turn touches the scratch, so
// none of it needs locking.
type proc struct {
	conn *Conn
	bw   *bufio.Writer
	br   *bufio.Reader

	frameBuf []byte
	enc      []byte
	ops      []op
	arena    []byte   // backs the buffered comparisons' Actual/Expected
	idArena  []uint32 // backs the buffered block batches
	res      resultMsg

	// fired is set by the watchdog just before it kills the child, so
	// a failed round-trip can be classified hang vs crash.
	fired atomic.Bool
}

// arenaCopy copies b into the proc's byte arena and returns a stable
// view. Growth reallocates the backing array but previously returned
// views keep pointing into the old one, so they stay valid until the
// next execution resets the arena.
func (p *proc) arenaCopy(b []byte) []byte {
	n := len(p.arena)
	p.arena = append(p.arena, b...)
	return p.arena[n : n+len(b) : n+len(b)]
}

// roundTrip sends one EXEC and buffers the child's decoded, validated
// reply into the proc's scratch. On any error the scratch must be
// considered garbage; the tracer has not been touched.
func (p *proc) roundTrip(input []byte, execSteps int) error {
	p.ops = p.ops[:0]
	p.arena = p.arena[:0]
	p.idArena = p.idArena[:0]
	p.enc = appendExec(p.enc[:0], execMsg{ExecSteps: uint32(execSteps), Input: input})
	if err := writeFrame(p.bw, fExec, p.enc); err != nil {
		return err
	}
	if err := p.bw.Flush(); err != nil {
		return err
	}
	nops := 0
	for {
		typ, payload, err := readFrame(p.br, &p.frameBuf)
		if err != nil {
			if err == io.EOF {
				// Clean close mid-execution is still a lost execution.
				return io.ErrUnexpectedEOF
			}
			return err
		}
		if nops++; nops > maxOps {
			return protoErrf("more than %d trace events in one execution", maxOps)
		}
		switch typ {
		case fCmp:
			m, err := parseCmp(payload)
			if err != nil {
				return err
			}
			if int64(m.Last) >= int64(len(input)) {
				return protoErrf("comparison offset %d beyond input length %d", m.Last, len(input))
			}
			m.Actual = p.arenaCopy(m.Actual)
			m.Expected = p.arenaCopy(m.Expected)
			p.ops = append(p.ops, op{kind: opCmp, cmp: m})
		case fEOF:
			m, err := parseEOF(payload)
			if err != nil {
				return err
			}
			if m.Index >= 0 && m.Index < int64(len(input)) {
				return protoErrf("EOF access at in-bounds offset %d", m.Index)
			}
			p.ops = append(p.ops, op{kind: opEOF, eof: m})
		case fBlocks:
			n := len(p.idArena)
			ids, err := parseBlocks(payload, p.idArena)
			if err != nil {
				return err
			}
			p.idArena = ids
			p.ops = append(p.ops, op{kind: opBlocks, blocks: p.idArena[n:len(p.idArena):len(p.idArena)]})
		case fResult:
			m, err := parseResult(payload)
			if err != nil {
				return err
			}
			if m.MaxAccess < -1 || m.MaxAccess >= int64(len(input)) {
				return protoErrf("result max access %d outside input length %d", m.MaxAccess, len(input))
			}
			p.res = m
			return nil
		case fFail:
			return protoErrf("child failed: %s", payload)
		default:
			return protoErrf("unexpected frame %q", typ)
		}
	}
}

// Host manages the child for one shimmed subject.
type Host struct {
	launcher Launcher
	opts     Options

	// turn is held by Subject.Run across one execution and its
	// replay, which reads the child's scratch: callers sharing the
	// Host take turns on its one child.
	turn sync.Mutex

	mu       sync.Mutex
	name     string
	blocks   int
	child    *proc // the connected child; nil until respawned after a failure
	closed   bool
	tripped  bool
	failures int // consecutive, reset on success
	backoff  time.Duration
	stats    Stats
}

// NewHost connects to its child eagerly — learning the subject's
// echoed name and block count, and failing fast on a launcher or
// handshake problem — and returns a Host ready for concurrent use.
func NewHost(l Launcher, opts Options) (*Host, error) {
	if opts.Subject == "" {
		return nil, fmt.Errorf("shim: Options.Subject is empty")
	}
	opts.fill()
	h := &Host{launcher: l, opts: opts}
	p, err := h.spawn()
	if err != nil {
		return nil, fmt.Errorf("shim: initial spawn: %w", err)
	}
	h.mu.Lock()
	h.stats.Spawns++
	h.child = p
	h.mu.Unlock()
	return h, nil
}

// SubjectName returns the subject name the children echoed.
func (h *Host) SubjectName() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.name
}

// Blocks returns the instrumented block count the children reported.
func (h *Host) Blocks() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.blocks
}

// Stats returns a snapshot of the lifetime counters.
func (h *Host) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.stats
}

// spawn launches and handshakes one child under HandshakeTimeout.
func (h *Host) spawn() (*proc, error) {
	conn, err := h.launcher.Launch()
	if err != nil {
		return nil, err
	}
	p := &proc{conn: conn, bw: bufio.NewWriter(conn.W), br: bufio.NewReader(conn.R)}
	tm := time.AfterFunc(h.opts.HandshakeTimeout, func() {
		p.fired.Store(true)
		conn.Kill()
	})
	err = h.handshake(p)
	tm.Stop()
	if err != nil {
		conn.Kill()
		conn.Wait() //nolint:errcheck // child already failed; reap only
		if p.fired.Load() {
			return nil, fmt.Errorf("shim: handshake timed out after %v", h.opts.HandshakeTimeout)
		}
		return nil, err
	}
	return p, nil
}

func (h *Host) handshake(p *proc) error {
	if err := writeMagic(p.bw); err != nil {
		return err
	}
	p.enc = appendHello(p.enc[:0], helloMsg{Version: Version, Name: h.opts.Subject})
	if err := writeFrame(p.bw, fHello, p.enc); err != nil {
		return err
	}
	if err := p.bw.Flush(); err != nil {
		return err
	}
	if err := readMagic(p.br); err != nil {
		return err
	}
	typ, payload, err := readFrame(p.br, &p.frameBuf)
	if err != nil {
		return err
	}
	if typ == fFail {
		return protoErrf("child refused: %s", payload)
	}
	if typ != fHello {
		return protoErrf("expected hello, got frame %q", typ)
	}
	m, err := parseHello(payload)
	if err != nil {
		return err
	}
	if m.Version != Version {
		return protoErrf("child protocol version %d, want %d", m.Version, Version)
	}
	if m.Name != h.opts.Subject {
		return protoErrf("child serves subject %q, want %q", m.Name, h.opts.Subject)
	}
	if m.Blocks == 0 {
		return protoErrf("child reports zero instrumented blocks")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.blocks == 0 {
		h.name, h.blocks = m.Name, int(m.Blocks)
	} else if h.blocks != int(m.Blocks) {
		return protoErrf("child reports %d blocks, earlier children reported %d", m.Blocks, h.blocks)
	}
	return nil
}

// acquire returns the child, spawning one (after the current backoff,
// when recovering from failures) if the last one failed. Callers hold
// turn.
func (h *Host) acquire() (*proc, error) {
	h.mu.Lock()
	if h.closed {
		h.stats.Unavailable++
		h.mu.Unlock()
		return nil, errClosed
	}
	if h.tripped {
		h.stats.Unavailable++
		h.mu.Unlock()
		return nil, errTripped
	}
	if p := h.child; p != nil {
		h.mu.Unlock()
		return p, nil
	}
	var wait time.Duration
	if h.failures > 0 {
		wait = h.backoff
	}
	h.mu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
	p, err := h.spawn()
	h.mu.Lock()
	if err != nil {
		h.stats.SpawnFails++
		h.stats.Unavailable++
		h.noteFailureLocked()
		h.mu.Unlock()
		return nil, err
	}
	if h.closed {
		h.stats.Unavailable++
		h.mu.Unlock()
		p.conn.Kill()
		p.conn.Wait() //nolint:errcheck // reap only
		return nil, errClosed
	}
	h.stats.Spawns++
	h.child = p
	h.mu.Unlock()
	return p, nil
}

// noteFailureLocked advances the consecutive-failure counter, the
// restart backoff, and — at MaxFailures — trips the breaker.
func (h *Host) noteFailureLocked() {
	if h.failures == 0 {
		h.backoff = h.opts.RestartBackoff
	} else if h.backoff < h.opts.MaxBackoff {
		h.backoff *= 2
		if h.backoff > h.opts.MaxBackoff {
			h.backoff = h.opts.MaxBackoff
		}
	}
	h.failures++
	if h.failures >= h.opts.MaxFailures && !h.tripped {
		h.tripped = true
		h.stats.Tripped = true
	}
}

// discard kills and reaps a child, so the next acquire respawns.
// Kill and Wait are idempotent, so a child Close already reaped may
// be discarded again.
func (h *Host) discard(p *proc) {
	h.mu.Lock()
	if h.child == p {
		h.child = nil
	}
	h.mu.Unlock()
	p.conn.Kill()
	p.conn.Wait() //nolint:errcheck // reap only
}

// exec runs one execution on the child under the per-exec deadline.
// Callers hold turn. On OutcomeOK the returned proc holds the decoded
// trace in its scratch for the caller to replay; on any other outcome
// the child has been discarded and the returned proc is nil.
func (h *Host) exec(input []byte, execSteps int) (*proc, Outcome) {
	p, err := h.acquire()
	if err != nil {
		return nil, OutcomeUnavailable
	}
	p.fired.Store(false)
	tm := time.AfterFunc(h.opts.ExecTimeout, func() {
		p.fired.Store(true)
		p.conn.Kill()
	})
	rerr := p.roundTrip(input, execSteps)
	stopped := tm.Stop()
	h.mu.Lock()
	h.stats.Execs++
	if rerr == nil {
		h.failures = 0
		h.mu.Unlock()
		if !stopped {
			// The deadline fired concurrently with completion: the
			// result is valid but the child is dying. Its scratch
			// outlives it for the replay.
			h.discard(p)
		}
		return p, OutcomeOK
	}
	hang := p.fired.Load()
	switch {
	case hang:
		h.stats.Hangs++
	case errors.Is(rerr, errProto):
		h.stats.Protocol++
	default:
		h.stats.Crashes++
	}
	if !h.closed {
		h.noteFailureLocked()
	}
	h.mu.Unlock()
	h.discard(p)
	if hang {
		return nil, OutcomeHang
	}
	return nil, OutcomeCrash
}

// Close kills and reaps the child, idle or in flight. It does not
// wait for turn: an in-flight execution fails over to
// OutcomeCrash/OutcomeUnavailable without affecting the breaker.
// Close is idempotent.
func (h *Host) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	p := h.child
	h.child = nil
	h.mu.Unlock()
	if p != nil {
		p.conn.Kill()
		p.conn.Wait() //nolint:errcheck // reap only
	}
}
