// Package leakcheck fails a test binary whose tests leave goroutines
// running in this module's code: an unclosed echo server, agent or
// HTTP listener outlives the test that started it and leaks into every
// test after it.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// grace is how long Main waits for goroutines to wind down after the
// last test returns.
const grace = 2 * time.Second

// Main runs the tests, then polls for up to two seconds until no
// goroutine has a choreo/internal/ frame; if some remain, it prints
// their stacks and the binary fails. Call it from TestMain.
func Main(m *testing.M) {
	code := m.Run()
	deadline := time.Now().Add(grace)
	stacks := leaked()
	for stacks != "" && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		stacks = leaked()
	}
	if stacks != "" {
		fmt.Fprintf(os.Stderr, "leakcheck: goroutines still running %v after the last test:\n\n%s\n", grace, stacks)
		code = 1
	}
	os.Exit(code)
}

// leaked returns the stacks of every goroutine, other than the caller's,
// with a frame in this module's internal packages.
func leaked() string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "choreo/internal/") && !strings.Contains(g, "choreo/internal/leakcheck.") {
			out = append(out, g)
		}
	}
	return strings.Join(out, "\n\n")
}
