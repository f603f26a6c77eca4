package shard

// Shard/merge behaviour across measurement backends: live shards merge
// with live shards, but mixing simulated and live shards of the same
// grid shape is refused with a precise error — the grid echo and the
// shard header both carry the backend.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"choreo/internal/sweep"
	"choreo/internal/sweep/backend"
	"choreo/internal/sweep/backend/livetest"
)

// liveTestGrid is testGrid measured by a live loopback backend instead
// of the simulator (VM counts shrunk to the mesh size).
func liveTestGrid(t *testing.T, agents []string) sweep.Grid {
	t.Helper()
	live, err := backend.NewLive(backend.LiveConfig{
		Agents:  agents,
		Timeout: 5 * time.Second,
		Train:   livetest.QuickTrain(),
	})
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid()
	g.VMCounts = []int{len(agents)}
	g.Backend = live
	return g
}

// TestLiveShardsMergeAndRejectSimSplice runs a live grid as two shards,
// merges them, and then checks a simulated shard of the same grid shape
// cannot be spliced in.
func TestLiveShardsMergeAndRejectSimSplice(t *testing.T) {
	mesh, err := livetest.Start(3)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	g := liveTestGrid(t, mesh.Addrs())

	var shards []*Shard
	for i := 1; i <= 2; i++ {
		b, _ := shardBytes(t, g, Spec{Index: i, Count: 2}, nil)
		sh, err := ReadShard("live-shard", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		if sh.Header.Backend != "live" {
			t.Fatalf("live shard header backend = %q, want live", sh.Header.Backend)
		}
		if sh.Grid.Backend != "live" {
			t.Fatalf("live shard grid echo backend = %q, want live", sh.Grid.Backend)
		}
		shards = append(shards, sh)
	}
	var merged bytes.Buffer
	if _, err := Merge(&merged, shards); err != nil {
		t.Fatalf("merging two live shards: %v", err)
	}

	// A simulated shard of the same grid shape: identical dimensions,
	// different measurement plane.
	sim := testGrid()
	sim.VMCounts = []int{3}
	sb, _ := shardBytes(t, sim, Spec{Index: 2, Count: 2}, nil)
	ssh, err := ReadShard("sim-shard", bytes.NewReader(sb))
	if err != nil {
		t.Fatal(err)
	}
	if ssh.Header.Backend != "" || ssh.Grid.Backend != "" {
		t.Fatalf("sim shard carries backend %q/%q; sim must stay the absent default", ssh.Header.Backend, ssh.Grid.Backend)
	}
	var out bytes.Buffer
	_, err = Merge(&out, []*Shard{shards[0], ssh})
	if err == nil {
		t.Fatal("merge spliced a live shard with a sim shard")
	}
	msg := err.Error()
	if !strings.Contains(msg, "measured by the live backend") || !strings.Contains(msg, "by sim") {
		t.Errorf("splice error does not name both backends: %v", err)
	}
	if !strings.Contains(msg, "cannot be spliced") {
		t.Errorf("splice error is not the precise backend-mismatch message: %v", err)
	}
}

// TestReadShardRejectsBackendTamper pins the in-file consistency check:
// a shard header claiming a different backend than its own grid echo is
// refused.
func TestReadShardRejectsBackendTamper(t *testing.T) {
	g := testGrid()
	b, _ := shardBytes(t, g, Spec{Index: 1, Count: 2}, nil)
	lines := bytes.SplitAfter(b, []byte("\n"))
	var hdr struct {
		Shard headerLine `json:"shard"`
	}
	if err := json.Unmarshal(lines[1], &hdr); err != nil {
		t.Fatal(err)
	}
	hdr.Shard.Backend = "live"
	tampered, err := json.Marshal(hdr)
	if err != nil {
		t.Fatal(err)
	}
	lines[1] = append(tampered, '\n')
	_, err = ReadShard("tampered", bytes.NewReader(bytes.Join(lines, nil)))
	if err == nil || !strings.Contains(err.Error(), "claims the live backend but the grid echo says sim") {
		t.Errorf("tampered backend header error = %v, want the precise mismatch", err)
	}
}
