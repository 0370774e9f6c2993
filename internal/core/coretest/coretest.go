// Package coretest provides the execution helpers shared by the core
// engine's tests. Before it existed, every test that wanted to
// re-validate an emitted input against a fresh subject instance
// duplicated the trace-option plumbing (subject.Execute with
// trace.Full(), or an ad-hoc empty Options); funneling those call
// sites through one helper keeps the recording configuration a single
// decision and gives the tests one obvious place to extend when the
// trace surface grows.
package coretest

import (
	"pfuzzer/internal/subject"
	"pfuzzer/internal/trace"
)

// ExecFull runs p once on input under full trace recording and
// returns the sealed record — the standard way a test re-executes an
// emitted input to inspect its verdict or coverage.
func ExecFull(p subject.Program, input []byte) *trace.Record {
	return subject.Execute(p, input, trace.Full())
}
