package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"choreo/internal/cluster"
	"choreo/internal/profiling"
)

// TestAgentProfilesStopOnSignal pins that choreo-agent finishes its
// profiles when SIGTERM shuts it down.
func TestAgentProfilesStopOnSignal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	dir := t.TempDir()
	cpu, mem, exec := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "exec.trace")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", addr, "-cpuprofile", cpu, "-memprofile", mem, "-exectrace", exec})
	}()
	// run registers for SIGTERM before the agent listens, so once it
	// answers the handshake, the signal shuts it down instead of the test.
	coord := cluster.NewCoordinator([]string{addr}, 5*time.Second)
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := coord.Info(context.Background(), 0)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("agent never answered: %v", err)
		}
		select {
		case err := <-done:
			t.Fatalf("agent exited early: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("agent: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("agent did not shut down on SIGTERM")
	}
	if err := profiling.Check(cpu, mem, exec); err != nil {
		t.Error(err)
	}
}
