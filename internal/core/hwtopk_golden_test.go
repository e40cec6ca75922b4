package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"wavelethist/internal/cluster"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/mapred"
)

// hwGolden is H-WTopk's full cost accounting on one fixed dataset: what
// the cluster cost model and the paper's communication metric are
// computed from, plus digests of the per-split state files the worker
// leases and coordinator checkpoints carry between rounds.
type hwGolden struct {
	shuffle    [3]int64   // per-round shuffle bytes
	broadcast  [3]int64   // per-round broadcast bytes
	mapCPU     [3]float64 // per-round sum of map-task CPU units
	mapIO      [3]int64   // per-round sum of map-task input bytes
	reduceCPU  [3]float64
	candidates int
	simSeconds uint64 // math.Float64bits of SimulatedSeconds(cluster.Paper())
	stateR1    string // sha256 over every split's round-1 state file
	stateR2    string // ... and round-2 state file
}

// stateDigest hashes (split id, length, bytes) of every split's state
// file for one round, in split order.
func stateDigest(st *mapred.StateStore, m int, key func(int) int) string {
	h := sha256.New()
	var hdr [16]byte
	for i := 0; i < m; i++ {
		b := st.Get(key(i))
		binary.LittleEndian.PutUint64(hdr[:8], uint64(i))
		binary.LittleEndian.PutUint64(hdr[8:], uint64(len(b)))
		h.Write(hdr[:])
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// measureHWGolden drives the three rounds the way runHWTopkRounds does,
// digesting the state store between rounds.
func measureHWGolden(t *testing.T, file *hdfs.File, p Params, domain int64, tf coefTransform) hwGolden {
	t.Helper()
	ctx := context.Background()
	var g hwGolden
	var metrics Metrics
	pl := newHWPlan(file, p, domain, tf, mapred.NewStateStore())
	m := len(pl.splits)

	res1, err := mapred.RunContext(ctx, pl.job(1))
	if err != nil {
		t.Fatal(err)
	}
	metrics.addRound(res1, 0)
	g.stateR1 = stateDigest(pl.state, m, hwStateR1)

	pl.setThreshold(pl.red1.T1 / float64(m))
	res2, err := mapred.RunContext(ctx, pl.job(2))
	if err != nil {
		t.Fatal(err)
	}
	metrics.addRound(res2, 8)
	g.stateR2 = stateDigest(pl.state, m, hwStateR2)
	if again := stateDigest(pl.state, m, hwStateR1); again != g.stateR1 {
		t.Errorf("round 2 modified round-1 state files")
	}

	rBytes := pl.publishR(pl.red2.R)
	g.candidates = len(pl.red2.R)
	res3, err := mapred.RunContext(ctx, pl.job(3))
	if err != nil {
		t.Fatal(err)
	}
	metrics.addRound(res3, rBytes)

	for r, rc := range metrics.RoundCosts {
		g.shuffle[r] = rc.ShuffleBytes
		g.broadcast[r] = rc.BroadcastBytes
		g.reduceCPU[r] = rc.ReduceCPUUnits
		for _, task := range rc.MapTasks {
			g.mapCPU[r] += task.CPUUnits
			g.mapIO[r] += task.InputBytes
		}
	}
	g.simSeconds = math.Float64bits(metrics.SimulatedSeconds(cluster.Paper()))
	return g
}

// TestHWTopkGoldenAccounting pins H-WTopk's cost model inputs and state
// file bytes to the values the sort-and-decode mappers produced (captured
// on the commit before the index-ordered pipeline): every ctx.AddWork /
// AddIOBytes charge, every shuffled pair, |R|, the simulated running time
// bit for bit, and the exact bytes of every split's state after rounds 1
// and 2.
func TestHWTopkGoldenAccounting(t *testing.T) {
	t.Run("1D", func(t *testing.T) {
		f, _ := testDataset(t, 20000, 1<<12, 1.1, 1024, 7)
		p := Params{U: 1 << 12, K: 10, Seed: 3}.Defaults()
		got := measureHWGolden(t, f, p, p.U, transform1D(p.U))
		want := hwGolden{
			shuffle:    [3]int64{25280, 976, 27168},
			broadcast:  [3]int64{0, 8, 164},
			mapCPU:     [3]float64{253478, 48260, 49836},
			mapIO:      [3]int64{851816, 771816, 770840},
			reduceCPU:  [3]float64{3782.125, 187, 3437},
			candidates: 41,
			simSeconds: 0x403e03d8b9ac3f85,
			stateR1:    "f51d0493fda4c9c2b289f8e1857e05e2f1cf46cdbb5da6b9472308e2cad6f298",
			stateR2:    "9063b3694f666093d83e1f79fe4d0d74967df97bc7b69165f28ef2d151572ca2",
		}
		if got != want {
			t.Errorf("accounting drifted:\n got %#v\nwant %#v", got, want)
		}
	})
	t.Run("2D", func(t *testing.T) {
		f, _ := make2DDataset(t, 6000, 32, 2048, 5)
		p := Params{U: 32, K: 8, Seed: 3}.Defaults()
		got := measureHWGolden(t, f, p, 32*32, transform2D(p.U))
		want := hwGolden{
			shuffle:    [3]int64{6144, 2016, 1168},
			broadcast:  [3]int64{0, 8, 68},
			mapCPU:     [3]float64{146776, 13310, 13131},
			mapIO:      [3]int64{259136, 211136, 209120},
			reduceCPU:  [3]float64{852, 289, 163},
			candidates: 17,
			simSeconds: 0x403e01644580b593,
			stateR1:    "c812fd2cb206a2f73b45677b67620270268da85d6c9b997789c8db990fd9228d",
			stateR2:    "c1e983b298b112de1ad586ef237eed67286ead9c125b44ba07e50a671d527972",
		}
		if got != want {
			t.Errorf("accounting drifted:\n got %#v\nwant %#v", got, want)
		}
	})
}
