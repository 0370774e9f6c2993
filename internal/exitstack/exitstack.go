// Package exitstack is the shutdown discipline the command-line
// binaries share: a LIFO stack of cleanups that every exit path —
// normal completion, a fatal error, a forced signal — runs exactly
// once, and a SIGINT/SIGTERM trap whose second signal forces exit 130.
package exitstack

import (
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// Stack is one process's cleanup stack.
type Stack struct {
	prog string // prefixes the messages Fail and the trap print

	mu      sync.Mutex
	fs      []func()
	started bool
	done    chan struct{} // closed once the cleanups have run
}

// New returns an empty stack for the program named prog.
func New(prog string) *Stack {
	return &Stack{prog: prog, done: make(chan struct{})}
}

// OnExit pushes a cleanup to run at process exit.
func (s *Stack) OnExit(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fs = append(s.fs, f)
}

// run runs the cleanups LIFO, once. A caller arriving while another
// goroutine runs them waits for it to finish when wait is set, and
// returns at once otherwise.
func (s *Stack) run(wait bool) {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		if wait {
			<-s.done
		}
		return
	}
	s.started = true
	fs := s.fs
	s.mu.Unlock()
	for i := len(fs) - 1; i >= 0; i-- {
		fs[i]()
	}
	close(s.done)
}

// Exit is the single exit path: the cleanups, then the status code.
func (s *Stack) Exit(code int) {
	s.run(true)
	os.Exit(code)
}

// Fail reports a fatal error and exits 2 through the stack.
func (s *Stack) Fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, s.prog+": "+format+"\n", args...)
	s.Exit(2)
}

// Trap installs the SIGINT/SIGTERM handler: the first signal calls
// first on the handler's goroutine; a second one forces exit 130
// through the stack — at once, without waiting, when the cleanups are
// already running (a drain the first signal started).
func (s *Stack) Trap(first func()) {
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		go func() {
			<-sigc
			fmt.Fprintf(os.Stderr, "%s: forced exit\n", s.prog)
			s.run(false)
			os.Exit(130)
		}()
		first()
	}()
}
