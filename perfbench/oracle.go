package main

import (
	"fmt"

	"pfuzzer/internal/subject"
	"pfuzzer/internal/trace"
)

// replayValids is the engine-independent half of the oracle: it runs
// every input on a fresh, uncached program built by newProg and
// returns the union of the blocks they cover. An input the program
// rejects is an error, since the engine reported it as valid.
func replayValids(newProg func() subject.Program, inputs [][]byte) (map[uint32]bool, error) {
	prog := newProg()
	cover := make(map[uint32]bool)
	for i, in := range inputs {
		rec := subject.Execute(prog, in, trace.Options{Comparisons: true})
		if !rec.Accepted() {
			return nil, fmt.Errorf("valid #%d %q rejected on replay (exit %d)", i, in, rec.Exit)
		}
		for id := range rec.BlockFirst {
			cover[id] = true
		}
	}
	return cover, nil
}

// sameBlocks reports whether two block sets are equal.
func sameBlocks(a, b map[uint32]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if !b[id] {
			return false
		}
	}
	return true
}

// sameInputs reports whether two valid sequences are equal, in order.
func sameInputs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			return false
		}
	}
	return true
}
