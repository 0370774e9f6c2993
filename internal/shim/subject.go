// Subject adapts a Host to the subject.Program contract, so every
// engine — pFuzzer, the AFL and KLEE baselines — drives an
// out-of-process subject through the interface it already knows. The
// trace replay goes through the public trace.Tracer methods only:
// sequence numbers, the path hash, block first-hit order, stack
// depths and the prefix-decided verdict are recomputed by the
// parent's own tracer under the parent's own recording options, which
// is what makes the result bit-identical to an in-process run for
// any option set (engines record comparisons only, the conformance
// kit records everything, the AFL baseline records edges only).
package shim

import (
	"pfuzzer/internal/registry"
	"pfuzzer/internal/subject"
	"pfuzzer/internal/taint"
	"pfuzzer/internal/trace"
)

// Subject is the parent-side stand-in for the out-of-process program.
// It is stateless; concurrent Run calls take turns on the shared
// Host's child, satisfying the registry's concurrent-Program
// contract.
type Subject struct {
	h *Host
}

// Subject returns the host's subject.Program adapter.
func (h *Host) Subject() *Subject { return &Subject{h: h} }

// Name returns the subject name the children echoed.
func (s *Subject) Name() string { return s.h.SubjectName() }

// Blocks returns the instrumented block count the children reported.
func (s *Subject) Blocks() int { return s.h.Blocks() }

// Run executes the input in a child process and replays the returned
// trace into t. A lost execution — crash, hang, no child available —
// marks the run undecided (so no deciding prefix can be memoised
// from the substitute verdict) and returns the corresponding harness
// exit status; every engine treats those as rejections and the
// campaign continues.
func (s *Subject) Run(t *trace.Tracer) int {
	s.h.turn.Lock()
	defer s.h.turn.Unlock()
	// RawInput, not Input: the parent harness forwarding bytes must
	// not mark the run length-dependent — only the child's own reads
	// decide that, and the result frame carries the verdict back.
	p, outcome := s.h.exec(t.RawInput(), t.ExecSteps(0))
	switch outcome {
	case OutcomeCrash:
		t.MarkUndecided()
		return subject.ExitCrash
	case OutcomeHang:
		t.MarkUndecided()
		return subject.ExitHang
	case OutcomeUnavailable:
		t.MarkUndecided()
		return subject.ExitUnavailable
	}
	replay(t, p)
	return int(p.res.Exit)
}

// setStack adjusts the tracer's instrumented stack depth to d with
// Enter/Leave calls, so each replayed event records the stack the
// child observed.
func setStack(t *trace.Tracer, d int) {
	for t.Depth() < d {
		t.Enter()
	}
	for t.Depth() > d {
		t.Leave()
	}
}

// replay feeds the buffered events through t's public API in child
// order. Comparisons are re-performed, not transcribed: the tracer
// recomputes Matched, re-arenas the payload bytes, and assigns
// sequence numbers under its own options, exactly as an in-process
// subject would have.
func replay(t *trace.Tracer, p *proc) {
	var ts taint.String
	for i := range p.ops {
		o := &p.ops[i]
		switch o.kind {
		case opBlocks:
			for _, id := range o.blocks {
				t.Block(id)
			}
		case opEOF:
			setStack(t, int(o.eof.Stack))
			t.At(int(o.eof.Index))
		case opCmp:
			m := &o.cmp
			setStack(t, int(m.Stack))
			switch m.Kind {
			case trace.CmpCharEq:
				t.CharEq(taint.Char{B: m.Actual[0], Origin: int(m.Index)}, m.Expected[0])
			case trace.CmpCharRange:
				t.CharRange(taint.Char{B: m.Actual[0], Origin: int(m.Index)}, m.Expected[0], m.Expected[1])
			case trace.CmpCharSet:
				t.CharSet(taint.Char{B: m.Actual[0], Origin: int(m.Index)}, string(m.Expected))
			case trace.CmpStrEq:
				// Reconstruct a taint.String whose FirstOrigin and
				// LastOrigin are the transmitted span; the middle
				// characters' origins are not recorded by StrEq, so
				// NoOrigin reproduces the identical comparison.
				ts = ts[:0]
				for _, b := range m.Actual {
					ts = append(ts, taint.Char{B: b, Origin: taint.NoOrigin})
				}
				ts[0].Origin = int(m.Index)
				ts[len(ts)-1].Origin = int(m.Last)
				t.StrEq(ts, string(m.Expected))
			}
		}
	}
	res := &p.res
	// Reproduce the deciding-prefix inputs: one in-bounds read at the
	// child's high-water offset, one length consultation if the child
	// made any.
	if res.MaxAccess >= 0 {
		t.At(int(res.MaxAccess))
	}
	if res.LenUsed {
		t.Len()
	}
	// Raise the high-water stack mark to the child's, then unwind.
	for t.Depth() < int(res.MaxDepth) {
		t.Enter()
	}
	setStack(t, 0)
}

// WrapEntry returns a copy of base whose constructor yields the
// host's out-of-process adapter instead of the in-process program.
// Inventory, tokenizer and mining lexer are kept: they describe the
// input language, not the execution vehicle. The conformance kit run
// over a wrapped entry is the acceptance test for the whole shim
// stack.
func WrapEntry(base registry.Entry, h *Host) registry.Entry {
	out := base
	out.New = func() subject.Program { return h.Subject() }
	return out
}
