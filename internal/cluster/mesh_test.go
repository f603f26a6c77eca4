package cluster

import "testing"

// TestMeshRoundsSchedule checks the duplex schedule for every fleet
// size from 2 to 17: each ordered pair runs exactly once, no agent
// sends twice or receives twice in a round, each round holds n pairs,
// and there are n−1 rounds.
func TestMeshRoundsSchedule(t *testing.T) {
	for n := 2; n <= 17; n++ {
		rounds := meshRounds(n)
		if len(rounds) != n-1 {
			t.Errorf("n=%d: %d rounds, want %d", n, len(rounds), n-1)
		}
		seen := make(map[meshPair]int)
		for r, round := range rounds {
			if len(round) != n {
				t.Errorf("n=%d round %d: %d pairs, want %d", n, r, len(round), n)
			}
			sending := make(map[int]bool)
			receiving := make(map[int]bool)
			for _, p := range round {
				if p.src == p.dst || p.src < 0 || p.dst < 0 || p.src >= n || p.dst >= n {
					t.Errorf("n=%d round %d: bad pair %v", n, r, p)
				}
				if sending[p.src] {
					t.Errorf("n=%d round %d: agent %d of pair %v already sends in %v", n, r, p.src, p, round)
				}
				if receiving[p.dst] {
					t.Errorf("n=%d round %d: agent %d of pair %v already receives in %v", n, r, p.dst, p, round)
				}
				sending[p.src], receiving[p.dst] = true, true
				seen[p]++
			}
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst && seen[meshPair{src, dst}] != 1 {
					t.Errorf("n=%d: pair %d->%d runs %d times, want 1", n, src, dst, seen[meshPair{src, dst}])
				}
			}
		}
		if len(seen) != n*(n-1) {
			t.Errorf("n=%d: %d distinct pairs, want %d", n, len(seen), n*(n-1))
		}
	}
}
