package backend

import "sync"

// fleetLock is an address-set lock: acquire claims a set of agent
// addresses all-or-nothing, blocking while any of them is held. Two
// cells whose agent subsets are disjoint run their packet trains or
// executed bulk flows concurrently; overlapping subsets serialize, so
// no agent NIC ever carries the traffic of two cells at once.
//
// Acquisition is atomic under one mutex — a waiter never holds part of
// its set while waiting for the rest — so acquires cannot deadlock
// regardless of subset overlap or arrival order.
type fleetLock struct {
	mu   sync.Mutex
	cond *sync.Cond
	busy map[string]bool
}

func (f *fleetLock) init() {
	f.cond = sync.NewCond(&f.mu)
	f.busy = make(map[string]bool)
}

// acquire blocks until every address in addrs is free, then claims
// them all.
func (f *fleetLock) acquire(addrs []string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.anyBusy(addrs) {
		f.cond.Wait()
	}
	for _, a := range addrs {
		f.busy[a] = true
	}
}

// release frees the addresses and wakes every waiter: any of them might
// now find its whole set free.
func (f *fleetLock) release(addrs []string) {
	f.mu.Lock()
	for _, a := range addrs {
		delete(f.busy, a)
	}
	f.mu.Unlock()
	f.cond.Broadcast()
}

func (f *fleetLock) anyBusy(addrs []string) bool {
	for _, a := range addrs {
		if f.busy[a] {
			return true
		}
	}
	return false
}
