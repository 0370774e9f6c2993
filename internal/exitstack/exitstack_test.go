package exitstack

import (
	"reflect"
	"testing"
)

// TestRunOnceLIFO pins the stack's order and its once-only run.
func TestRunOnceLIFO(t *testing.T) {
	s := New("test")
	var got []int
	for i := 1; i <= 3; i++ {
		s.OnExit(func() { got = append(got, i) })
	}
	s.run(true)
	s.run(true)
	if want := []int{3, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("cleanups ran %v, want %v", got, want)
	}
}

// TestRunWhileRunning pins what a second exit path sees while the
// cleanups run on another goroutine: a forced exit returns at once,
// a normal exit waits for them to finish.
func TestRunWhileRunning(t *testing.T) {
	s := New("test")
	entered, release := make(chan struct{}), make(chan struct{})
	s.OnExit(func() {
		close(entered)
		<-release
	})
	go s.run(true)
	<-entered

	s.run(false) // must not block on the running cleanup

	waited := make(chan struct{})
	go func() {
		s.run(true)
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatalf("a waiting run returned before the cleanups finished")
	default:
	}
	close(release)
	<-waited
}
