package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"choreo/internal/place"
	"choreo/internal/profiling"
	"choreo/internal/serve"
	"choreo/internal/sweep/backend"
	"choreo/internal/topology"
)

// profilePaths returns the -cpuprofile, -memprofile and -exectrace
// arguments for files in a fresh directory, and the three paths.
func profilePaths(t *testing.T) (args, paths []string) {
	dir := t.TempDir()
	paths = []string{filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof"), filepath.Join(dir, "exec.trace")}
	return []string{"-cpuprofile", paths[0], "-memprofile", paths[1], "-exectrace", paths[2]}, paths
}

// checkProfiles fails the test unless the three profiles are finished.
func checkProfiles(t *testing.T, paths []string) {
	t.Helper()
	if err := profiling.Check(paths[0], paths[1], paths[2]); err != nil {
		t.Error(err)
	}
}

// TestServeProfilesStopOnSignal pins that `choreo serve` finishes its
// profiles when SIGINT shuts it down.
func TestServeProfilesStopOnSignal(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	args, paths := profilePaths(t)
	done := make(chan error, 1)
	go func() {
		done <- runServe(append([]string{"-listen", addr, "-vms", "4", "-interval", "0"}, args...))
	}()
	// runServe registers for SIGINT before it measures its boot epoch,
	// so once it answers, the signal shuts it down instead of the test.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/v1/health")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never answered: %v", err)
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited early: %v", err)
		case <-time.After(20 * time.Millisecond):
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not shut down on SIGINT")
	}
	checkProfiles(t, paths)
}

// TestLoadProfiles pins that `choreo load` finishes its profiles both
// after a clean run and when it fails.
func TestLoadProfiles(t *testing.T) {
	s := serve.New(serve.Config{
		Backend: backend.NewSim(),
		Cell:    backend.Cell{Topology: "ec2-2013", Profile: topology.EC22013(), VMs: 4, Seed: 1},
		Model:   place.Hose,
	})
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	args, paths := profilePaths(t)
	if err := runLoad(append([]string{"-server", ts.URL, "-clients", "1", "-duration", "100ms"}, args...)); err != nil {
		t.Fatalf("load: %v", err)
	}
	checkProfiles(t, paths)

	// Nothing listens at a closed test server, so every request fails.
	closed := httptest.NewServer(http.NotFoundHandler())
	closed.Close()
	args, paths = profilePaths(t)
	if err := runLoad(append([]string{"-server", closed.URL, "-clients", "1", "-duration", "100ms"}, args...)); err == nil {
		t.Fatal("load against a closed server succeeded")
	}
	checkProfiles(t, paths)
}
