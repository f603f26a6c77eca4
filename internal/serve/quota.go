package serve

import (
	"sync"
	"time"
)

// quotas is a per-tenant token bucket limiting the compute endpoints
// (place, migrate). Each tenant — keyed by the X-Choreo-Tenant header —
// gets its own bucket holding up to burst tokens refilled at rate
// tokens per second; a request spends one token or is rejected with
// HTTP 429. The read-only endpoints (health, metrics, env) are exempt:
// monitoring must keep working for a tenant that has talked itself into
// rejection.
//
// A bucket that has refilled to burst grants and refills exactly like
// an absent one, which allow creates full, so such buckets are dropped:
// once the map has doubled since the last sweep, the next new tenant
// sweeps it. The map then holds about twice the tenants seen within one
// refill time (burst/rate), however many tenants have ever called.
type quotas struct {
	rate  float64 // tokens per second
	burst float64
	now   func() time.Time // test hook

	mu      sync.Mutex
	buckets map[string]*bucket
	// sweepAt is the map size at which the next new tenant sweeps.
	sweepAt int
}

// minSweepAt is the smallest map size that triggers a sweep.
const minSweepAt = 64

type bucket struct {
	tokens float64
	last   time.Time
}

// newQuotas builds a limiter; rate <= 0 returns nil, meaning unlimited
// (the nil receiver's allow always grants).
func newQuotas(rate float64, burst int) *quotas {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &quotas{
		rate:    rate,
		burst:   float64(burst),
		now:     time.Now,
		buckets: make(map[string]*bucket),
		sweepAt: minSweepAt,
	}
}

// allow spends one token from tenant's bucket, reporting whether the
// request may proceed. A tenant's first request finds a full bucket.
func (q *quotas) allow(tenant string) bool {
	if q == nil {
		return true
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b, ok := q.buckets[tenant]
	if !ok {
		if len(q.buckets) >= q.sweepAt {
			q.sweep(now)
		}
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * q.rate
		if b.tokens > q.burst {
			b.tokens = q.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// sweep drops every bucket that has refilled to burst by now, with the
// same arithmetic allow refills with, and sets the next sweep at twice
// the size it leaves.
func (q *quotas) sweep(now time.Time) {
	for tenant, b := range q.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*q.rate >= q.burst {
			delete(q.buckets, tenant)
		}
	}
	q.sweepAt = max(2*len(q.buckets), minSweepAt)
}
