package dist

import (
	"testing"
	"time"
)

// TestHeartbeatExpiry: in a loopback cluster a remote worker that joined
// over HTTP is dead after 15 s without a heartbeat or a successful RPC,
// and its next heartbeat revives it; the loopback worker, which never
// heartbeats, stays alive however long it sits idle.
func TestHeartbeatExpiry(t *testing.T) {
	c, _ := NewLoopbackCluster(1, 1, Config{})
	c.Register("remote", "http://127.0.0.1:1", 1)
	age := func(d time.Duration) {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, w := range c.workers {
			w.lastSeen = time.Now().Add(-d)
		}
	}
	alive := func(want int) {
		t.Helper()
		if got := c.AliveWorkers(); got != want {
			t.Fatalf("alive workers: got %d, want %d (%+v)", got, want, c.Workers())
		}
	}
	alive(2)
	age(14 * time.Second)
	alive(2)
	age(16 * time.Second)
	alive(1)
	for _, w := range c.Workers() {
		if w.Alive != (w.ID == "local-0") {
			t.Errorf("worker %s alive=%v", w.ID, w.Alive)
		}
	}
	age(24 * time.Hour)
	alive(1)
	if !c.Heartbeat("remote") {
		t.Fatal("heartbeat from a registered worker reported unknown")
	}
	alive(2)
}
