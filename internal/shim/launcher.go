// Launchers produce connected children. CmdLauncher spawns a real
// subprocess (cmd/pshim or any binary speaking the protocol);
// PipeLauncher runs a Serve function over in-memory pipes, giving
// tests the full protocol path without fork/exec nondeterminism.
package shim

import (
	"io"
	"os"
	"os/exec"
	"sync"
)

// Conn is one connected child: the parent writes frames to W, reads
// frames from R, and can Kill the child at any time (idempotent,
// callable concurrently with reads — the watchdog uses it). Wait
// blocks until the child is fully reaped and returns its terminal
// error; it must only be called after Kill or after W is closed, and
// may be called more than once (Host.Close and a failing in-flight
// execution both reap the same child).
type Conn struct {
	W    io.WriteCloser
	R    io.Reader
	Kill func()
	Wait func() error
}

// Launcher produces connected children, one per Launch call.
type Launcher interface {
	Launch() (*Conn, error)
}

// CmdLauncher launches a subprocess and connects to its stdio.
type CmdLauncher struct {
	// Path is the binary to execute.
	Path string
	// Args are the command-line arguments (not including Path).
	Args []string
	// Env optionally replaces the child's environment.
	Env []string
	// Stderr receives the child's stderr (default os.Stderr).
	Stderr io.Writer
}

// Launch starts the subprocess.
func (l CmdLauncher) Launch() (*Conn, error) {
	cmd := exec.Command(l.Path, l.Args...)
	if l.Env != nil {
		cmd.Env = l.Env
	}
	if l.Stderr != nil {
		cmd.Stderr = l.Stderr
	} else {
		cmd.Stderr = os.Stderr
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			stdin.Close()      //nolint:errcheck // already tearing down
			cmd.Process.Kill() //nolint:errcheck // already tearing down
		})
	}
	var waitOnce sync.Once
	var werr error
	wait := func() error {
		waitOnce.Do(func() { werr = cmd.Wait() })
		return werr
	}
	return &Conn{W: stdin, R: stdout, Kill: kill, Wait: wait}, nil
}

// PipeLauncher runs Serve in a goroutine over in-memory pipes. It is
// the deterministic stand-in for a subprocess: same protocol, same
// lifecycle (Kill closes both pipe ends, unblocking the goroutine),
// no fork/exec.
type PipeLauncher struct {
	Serve func(r io.Reader, w io.Writer) error
}

// Launch connects a new serving goroutine.
func (l PipeLauncher) Launch() (*Conn, error) {
	childR, parentW := io.Pipe()
	parentR, childW := io.Pipe()
	done := make(chan struct{})
	var serr error
	go func() {
		defer close(done)
		serr = l.Serve(childR, childW)
		childW.Close() //nolint:errcheck // io.Pipe Close never fails
		childR.Close() //nolint:errcheck // io.Pipe Close never fails
	}()
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			parentW.Close() //nolint:errcheck // io.Pipe Close never fails
			parentR.Close() //nolint:errcheck // io.Pipe Close never fails
		})
	}
	wait := func() error {
		<-done
		return serr
	}
	return &Conn{W: parentW, R: parentR, Kill: kill, Wait: wait}, nil
}
