package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wavelethist/dist"
)

// TestKeepRegistered exercises the register → heartbeat → forgotten →
// re-register lifecycle against a stub coordinator that asks for 10 ms
// heartbeats and forgets the worker at its first one.
func TestKeepRegistered(t *testing.T) {
	var registrations, heartbeats atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+dist.PathRegister, func(w http.ResponseWriter, r *http.Request) {
		registrations.Add(1)
		w.Write(dist.EncodeRegisterResponse(&dist.RegisterResponse{OK: true, HeartbeatMillis: 10}))
	})
	mux.HandleFunc("POST "+dist.PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		if heartbeats.Add(1) == 1 {
			w.WriteHeader(http.StatusNotFound)
			w.Write(dist.EncodeHeartbeatResponse(&dist.HeartbeatResponse{}))
			return
		}
		w.Write(dist.EncodeHeartbeatResponse(&dist.HeartbeatResponse{OK: true}))
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- keepRegistered(ctx, srv.URL, dist.RegisterRequest{ID: "w-test", Addr: "http://127.0.0.1:1", Capacity: 1})
	}()

	deadline := time.Now().Add(5 * time.Second)
	for registrations.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("no re-registration after the coordinator forgot the worker: %d registrations, %d heartbeats",
				registrations.Load(), heartbeats.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("keepRegistered: %v", err)
	}
}

// TestKeepRegisteredRetriesUntilCoordinatorIsUp: registration retries
// while the coordinator is unreachable and gives up cleanly on cancel.
func TestKeepRegisteredRetriesUntilCoordinatorIsUp(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "not ready", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := keepRegistered(ctx, srv.URL, dist.RegisterRequest{ID: "w", Addr: "http://x", Capacity: 1})
	if err == nil {
		t.Fatal("expected registration failure")
	}
	if hits.Load() == 0 {
		t.Fatal("never attempted registration")
	}
}

// TestAdvertiseURL keeps concrete loopback hosts verbatim.
func TestAdvertiseURL(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	u := advertiseURL(ln.Addr())
	if got, want := u[:17], "http://127.0.0.1:"; got != want {
		t.Fatalf("advertiseURL = %q", u)
	}
}
