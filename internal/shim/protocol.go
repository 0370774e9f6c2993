// Message payload encoding. All integers are little-endian;
// variable-length byte strings are length-prefixed. Sequence numbers
// are never transmitted: the trace's event order is the frame order,
// and the parent reproduces the exact sequence numbering by replaying
// the events through the public trace.Tracer API under its own
// recording options.
package shim

import (
	"encoding/binary"

	"pfuzzer/internal/trace"
)

// helloMsg opens the session in both directions: the parent announces
// the protocol version and the subject it wants, the child echoes the
// version and name and reports the subject's instrumented block
// count (zero in the parent's direction).
type helloMsg struct {
	Version uint32
	Blocks  uint32
	Name    string
}

// execMsg asks the child to run one execution. ExecSteps forwards the
// parent tracer's interpreter-step budget (0 = subject default).
type execMsg struct {
	ExecSteps uint32
	Input     []byte
}

// cmpMsg is one recorded comparison. Matched is transmitted only so
// the parent can cross-check the replayed recomputation; a mismatch
// is a protocol error, never a silent divergence.
type cmpMsg struct {
	Kind     trace.CmpKind
	Matched  bool
	Stack    uint32
	Index    uint32
	Last     uint32
	Actual   []byte
	Expected []byte
}

// eofMsg is one attempted read at or past the end of the input.
// Index is signed: subjects may probe negative offsets.
type eofMsg struct {
	Stack uint32
	Index int64
}

// resultMsg closes one execution: the exit status plus the
// deciding-prefix inputs (largest in-bounds offset read, whether the
// total length was consulted) and the maximum instrumented stack
// depth, which the parent replays so Record.Decided and MaxDepth come
// out bit-identical.
type resultMsg struct {
	Exit      int32
	MaxAccess int64
	LenUsed   bool
	MaxDepth  uint32
}

// limits the parent enforces while decoding, so a berserk child can
// cost at most bounded memory and replay time.
const (
	maxStack  = 1 << 20
	maxDepthL = 1 << 20
	maxOps    = 1 << 22
)

func appendU32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendBytes(dst, b []byte) []byte {
	dst = appendU32(dst, uint32(len(b)))
	return append(dst, b...)
}

// cursor is a bounds-checked little-endian payload reader. The first
// short read latches err; every later read returns zero values.
type cursor struct {
	b   []byte
	err error
}

func (c *cursor) fail() {
	if c.err == nil {
		c.err = protoErrf("truncated payload")
	}
}

func (c *cursor) u8() byte {
	if c.err != nil || len(c.b) < 1 {
		c.fail()
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *cursor) u32() uint32 {
	if c.err != nil || len(c.b) < 4 {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b)
	c.b = c.b[4:]
	return v
}

func (c *cursor) u64() uint64 {
	if c.err != nil || len(c.b) < 8 {
		c.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b)
	c.b = c.b[8:]
	return v
}

func (c *cursor) bytes() []byte {
	n := c.u32()
	if c.err != nil || uint32(len(c.b)) < n {
		c.fail()
		return nil
	}
	v := c.b[:n]
	c.b = c.b[n:]
	return v
}

// flag reads a flags byte whose only defined bit is bit 0. A set
// reserved bit is a protocol error, so every accepted payload
// re-encodes to its own bytes.
func (c *cursor) flag() bool {
	b := c.u8()
	if b&^1 != 0 && c.err == nil {
		c.err = protoErrf("reserved flag bits %#02x", b)
	}
	return b&1 != 0
}

// done checks that the payload was consumed exactly.
func (c *cursor) done() error {
	if c.err != nil {
		return c.err
	}
	if len(c.b) != 0 {
		return protoErrf("%d trailing payload bytes", len(c.b))
	}
	return nil
}

func appendHello(dst []byte, m helloMsg) []byte {
	dst = appendU32(dst, m.Version)
	dst = appendU32(dst, m.Blocks)
	return appendBytes(dst, []byte(m.Name))
}

func parseHello(p []byte) (helloMsg, error) {
	c := cursor{b: p}
	m := helloMsg{Version: c.u32(), Blocks: c.u32(), Name: string(c.bytes())}
	return m, c.done()
}

func appendExec(dst []byte, m execMsg) []byte {
	dst = appendU32(dst, m.ExecSteps)
	return appendBytes(dst, m.Input)
}

func parseExec(p []byte) (execMsg, error) {
	c := cursor{b: p}
	m := execMsg{ExecSteps: c.u32(), Input: c.bytes()}
	return m, c.done()
}

func appendCmp(dst []byte, m cmpMsg) []byte {
	dst = append(dst, byte(m.Kind))
	var flags byte
	if m.Matched {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = appendU32(dst, m.Stack)
	dst = appendU32(dst, m.Index)
	dst = appendU32(dst, m.Last)
	dst = appendBytes(dst, m.Actual)
	return appendBytes(dst, m.Expected)
}

func parseCmp(p []byte) (cmpMsg, error) {
	c := cursor{b: p}
	m := cmpMsg{Kind: trace.CmpKind(c.u8())}
	m.Matched = c.flag()
	m.Stack = c.u32()
	m.Index = c.u32()
	m.Last = c.u32()
	m.Actual = c.bytes()
	m.Expected = c.bytes()
	if err := c.done(); err != nil {
		return m, err
	}
	return m, validateCmp(&m)
}

// validateCmp enforces the invariants the replay relies on, including
// that the transmitted Matched bit agrees with the comparison the
// parent is about to recompute — any disagreement means the trace
// could not have come from the comparison it claims to be.
func validateCmp(m *cmpMsg) error {
	if m.Stack > maxStack {
		return protoErrf("comparison stack %d exceeds limit", m.Stack)
	}
	var matched bool
	switch m.Kind {
	case trace.CmpCharEq, trace.CmpCharRange, trace.CmpCharSet:
		if len(m.Actual) != 1 {
			return protoErrf("%v comparison with %d actual bytes", m.Kind, len(m.Actual))
		}
		if m.Last != m.Index {
			return protoErrf("%v comparison spanning %d..%d", m.Kind, m.Index, m.Last)
		}
		b := m.Actual[0]
		switch m.Kind {
		case trace.CmpCharEq:
			if len(m.Expected) != 1 {
				return protoErrf("char== with %d expected bytes", len(m.Expected))
			}
			matched = b == m.Expected[0]
		case trace.CmpCharRange:
			if len(m.Expected) != 2 {
				return protoErrf("range with %d expected bytes", len(m.Expected))
			}
			matched = b >= m.Expected[0] && b <= m.Expected[1]
		default: // CmpCharSet
			for _, s := range m.Expected {
				if s == b {
					matched = true
					break
				}
			}
		}
	case trace.CmpStrEq:
		if len(m.Actual) == 0 {
			return protoErrf("strcmp with empty actual")
		}
		if m.Last < m.Index {
			return protoErrf("strcmp spanning %d..%d", m.Index, m.Last)
		}
		if len(m.Actual) == 1 && m.Last != m.Index {
			return protoErrf("single-char strcmp spanning %d..%d", m.Index, m.Last)
		}
		matched = string(m.Actual) == string(m.Expected)
	default:
		return protoErrf("unknown comparison kind %d", m.Kind)
	}
	if matched != m.Matched {
		return protoErrf("%v comparison claims matched=%v, recomputes %v", m.Kind, m.Matched, matched)
	}
	return nil
}

func appendEOF(dst []byte, m eofMsg) []byte {
	dst = appendU32(dst, m.Stack)
	return appendU64(dst, uint64(m.Index))
}

func parseEOF(p []byte) (eofMsg, error) {
	c := cursor{b: p}
	m := eofMsg{Stack: c.u32(), Index: int64(c.u64())}
	if err := c.done(); err != nil {
		return m, err
	}
	if m.Stack > maxStack {
		return m, protoErrf("EOF stack %d exceeds limit", m.Stack)
	}
	return m, nil
}

func appendBlocks(dst []byte, ids []uint32) []byte {
	dst = appendU32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = appendU32(dst, id)
	}
	return dst
}

// parseBlocks appends the batch's block IDs to dst and returns the
// extended slice, so the caller can arena the IDs without an
// intermediate allocation.
func parseBlocks(p []byte, dst []uint32) ([]uint32, error) {
	c := cursor{b: p}
	n := c.u32()
	if c.err == nil && uint32(len(c.b)) != 4*n {
		c.fail()
	}
	for i := uint32(0); i < n && c.err == nil; i++ {
		dst = append(dst, c.u32())
	}
	return dst, c.err
}

func appendResult(dst []byte, m resultMsg) []byte {
	dst = appendU32(dst, uint32(m.Exit))
	dst = appendU64(dst, uint64(m.MaxAccess))
	var flags byte
	if m.LenUsed {
		flags |= 1
	}
	dst = append(dst, flags)
	return appendU32(dst, m.MaxDepth)
}

func parseResult(p []byte) (resultMsg, error) {
	c := cursor{b: p}
	m := resultMsg{Exit: int32(c.u32()), MaxAccess: int64(c.u64())}
	m.LenUsed = c.flag()
	m.MaxDepth = c.u32()
	if err := c.done(); err != nil {
		return m, err
	}
	if m.MaxDepth > maxDepthL {
		return m, protoErrf("result max depth %d exceeds limit", m.MaxDepth)
	}
	return m, nil
}
