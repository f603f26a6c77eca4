package cluster

import "testing"

// TestMeshRoundsSchedule checks the round-robin schedule for every
// fleet size from 2 to 17: each ordered pair runs exactly once, no
// round holds an agent twice, each round holds ⌊n/2⌋ pairs, and there
// are 2(n−1) rounds for even n and 2n for odd n.
func TestMeshRoundsSchedule(t *testing.T) {
	for n := 2; n <= 17; n++ {
		rounds := meshRounds(n)
		wantRounds := 2 * (n - 1)
		if n%2 == 1 {
			wantRounds = 2 * n
		}
		if len(rounds) != wantRounds {
			t.Errorf("n=%d: %d rounds, want %d", n, len(rounds), wantRounds)
		}
		seen := make(map[meshPair]int)
		for r, round := range rounds {
			if len(round) != n/2 {
				t.Errorf("n=%d round %d: %d pairs, want %d", n, r, len(round), n/2)
			}
			busy := make(map[int]bool)
			for _, p := range round {
				if p.src == p.dst || p.src < 0 || p.dst < 0 || p.src >= n || p.dst >= n {
					t.Errorf("n=%d round %d: bad pair %v", n, r, p)
				}
				if busy[p.src] || busy[p.dst] {
					t.Errorf("n=%d round %d: agent of pair %v already busy in %v", n, r, p, round)
				}
				busy[p.src], busy[p.dst] = true, true
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
