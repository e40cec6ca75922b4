package ha

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Per-target circuit breakers. A black-holed shard must cost one
// breaker trip, not a full client timeout per request: after
// breakerFailThreshold consecutive failures the breaker opens and
// requests to that target fail immediately, until a jittered
// exponential backoff elapses and one half-open probe is let through.
// Success closes the breaker and resets the backoff; failure re-opens it
// with a doubled backoff, capped at breakerMaxBackoff. Jitter
// decorrelates the probe times of routers sharing a recovering target.
const (
	breakerFailThreshold = 3
	breakerBaseBackoff   = 100 * time.Millisecond
	breakerMaxBackoff    = 5 * time.Second
)

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

type breaker struct {
	state     int
	fails     int           // consecutive failures while closed
	backoff   time.Duration // next open interval
	openUntil time.Time
}

// breakerSet holds one breaker per upstream target URL, created lazily.
type breakerSet struct {
	mu  sync.Mutex
	m   map[string]*breaker
	rng *rand.Rand

	trips atomic.Uint64 // breakers opened (waverouter_breaker_trips_total)
	skips atomic.Uint64 // requests refused while open (waverouter_breaker_skips_total)
}

// newBreakerSet seeds the jitter stream (the router seeds it from the
// clock; tests fix it).
func newBreakerSet(seed int64) *breakerSet {
	return &breakerSet{
		m:   map[string]*breaker{},
		rng: rand.New(rand.NewSource(seed)),
	}
}

var errBreakerOpen = fmt.Errorf("ha: circuit breaker open")

// Allow reports whether a request to target may proceed. An open
// breaker past its backoff admits exactly one half-open probe; further
// requests keep failing fast until that probe reports back.
func (s *breakerSet) Allow(target string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[target]
	if b == nil {
		return true
	}
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if time.Now().Before(b.openUntil) {
			s.skips.Add(1)
			return false
		}
		b.state = breakerHalfOpen
		return true // the probe
	default: // half-open, probe in flight
		s.skips.Add(1)
		return false
	}
}

// Success records a successful exchange: the breaker (if any) closes
// and its backoff resets.
func (s *breakerSet) Success(target string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.m[target]; b != nil {
		b.state = breakerClosed
		b.fails = 0
		b.backoff = 0
	}
}

// Failure records a failed exchange (network error or 5xx). Crossing
// the threshold — or failing the half-open probe — opens the breaker
// for a jittered, exponentially growing interval.
func (s *breakerSet) Failure(target string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[target]
	if b == nil {
		b = &breaker{}
		s.m[target] = b
	}
	if b.state == breakerHalfOpen {
		s.open(b)
		return
	}
	b.fails++
	if b.fails >= breakerFailThreshold {
		s.open(b)
	}
}

// open transitions to the open state with the next backoff interval,
// jittered ±50% so recovering targets are not probed in lockstep.
func (s *breakerSet) open(b *breaker) {
	if b.backoff <= 0 {
		b.backoff = breakerBaseBackoff
	} else {
		b.backoff *= 2
		b.backoff = min(b.backoff, breakerMaxBackoff)
	}
	jittered := b.backoff/2 + time.Duration(s.rng.Int63n(int64(b.backoff)))
	b.state = breakerOpen
	b.fails = 0
	b.openUntil = time.Now().Add(jittered)
	s.trips.Add(1)
}
