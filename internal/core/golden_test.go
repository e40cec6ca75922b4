package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"wavelethist/internal/cluster"
	"wavelethist/internal/datagen"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/mapred"
	"wavelethist/internal/wavelet"
)

// Golden accounting: every number the cluster cost model and the paper's
// communication metric are computed from, captured once from the code
// before the one-plan refactor and asserted for both executors of a
// RoundPlan. A drift in any ctx.AddWork / AddIOBytes charge, shuffled
// pair, state-file byte or output float fails here.

// executor runs every round of plan and returns the state store the map
// side wrote to (the plan's own for the local executor, the worker lease
// for the split-granular one). afterRound observes each finished round.
type executor func(t *testing.T, file *hdfs.File, method string, p Params, plan *RoundPlan, afterRound func(round int, state *mapred.StateStore))

var executors = map[string]executor{
	// The local loop every Algorithm.Run is.
	"local": func(t *testing.T, _ *hdfs.File, _ string, _ Params, plan *RoundPlan, afterRound func(int, *mapred.StateStore)) {
		for r := 1; r <= plan.NumRounds(); r++ {
			if err := plan.RunRound(context.Background(), r); err != nil {
				t.Fatal(err)
			}
			afterRound(r, plan.state)
		}
	},
	// MapRoundSplits over all splits in two uneven batches (the second
	// listed first, so arrival order differs from split order) →
	// ReduceRound.
	"split-granular": func(t *testing.T, file *hdfs.File, method string, p Params, plan *RoundPlan, afterRound func(int, *mapred.StateStore)) {
		ctx := context.Background()
		m := plan.NumSplits()
		var late, early []int
		for id := 0; id < m; id++ {
			if id < m/3 {
				early = append(early, id)
			} else {
				late = append(late, id)
			}
		}
		ws := NewWorkerState()
		for r := 1; r <= plan.NumRounds(); r++ {
			bcast := plan.Broadcast(r)
			var parts []SplitPartial
			for _, ids := range [][]int{late, early} {
				ps, replayed, err := MapRoundSplits(ctx, file, method, p, r, bcast, ids, ws)
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				if len(replayed) != 0 {
					t.Fatalf("round %d replayed %v", r, replayed)
				}
				parts = append(parts, ps...)
			}
			if err := plan.ReduceRound(ctx, r, parts); err != nil {
				t.Fatalf("reduce round %d: %v", r, err)
			}
			afterRound(r, ws.store)
		}
	},
}

// coefDigest hashes the (index, value-bits) coefficient list in order.
func coefDigest(coefs []wavelet.Coef) string {
	h := sha256.New()
	var b [16]byte
	for _, c := range coefs {
		binary.LittleEndian.PutUint64(b[:8], uint64(c.Index))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(c.Value))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// planCoefs returns a finished plan's coefficients, 1D or 2D.
func planCoefs(t *testing.T, plan *RoundPlan) []wavelet.Coef {
	t.Helper()
	if plan.spec.dim == 2 {
		out, err := plan.Output2D()
		if err != nil {
			t.Fatal(err)
		}
		return out.Rep.Coefs
	}
	out, err := plan.Output()
	if err != nil {
		t.Fatal(err)
	}
	return out.Rep.Coefs
}

// goldenDataset is the fixed input of the goldens: the 1D Zipf file for
// 1D methods, the packed 2D grid for 2D ones.
func goldenDataset(t *testing.T, method string) (*hdfs.File, Params) {
	t.Helper()
	spec, err := lookup(method)
	if err != nil {
		t.Fatal(err)
	}
	if spec.dim == 2 {
		f, _ := make2DDataset(t, 6000, 32, 2048, 5)
		return f, Params{U: 32, K: 8, Epsilon: 0.03, Seed: 3}
	}
	f, _ := testDataset(t, 20000, 1<<12, 1.1, 1024, 7)
	return f, Params{U: 1 << 12, K: 10, Epsilon: 0.01, Seed: 3, CombineEnabled: true}
}

// oneRoundGolden is a one-round build's full cost accounting and output.
type oneRoundGolden struct {
	shuffle, pairs     int64
	records, bytesRead int64
	mapCPU             float64 // sum of map-task CPU units
	mapIO              int64   // sum of map-task input bytes
	reduceCPU          float64
	simSeconds         uint64 // math.Float64bits of SimulatedSeconds(cluster.Paper())
	coefs              string // coefDigest of the output
}

// TestOneRoundGoldenAccounting pins the eight one-round builds to the
// values their Run produced before every method became a RoundPlan.
func TestOneRoundGoldenAccounting(t *testing.T) {
	want := map[string]oneRoundGolden{
		"Send-V":        {shuffle: 81440, pairs: 10180, records: 20000, bytesRead: 80000, mapCPU: 30180, mapIO: 80000, reduceCPU: 54804, simSeconds: 0x4024074624ec9701, coefs: "5558bdd6088304808c892e0c27657477b4701df5965dd428cbb1ff43f5ef2311"},
		"Send-Coef":     {shuffle: 597348, pairs: 49779, records: 20000, bytesRead: 80000, mapCPU: 202119, mapIO: 80000, reduceCPU: 103256, simSeconds: 0x4024322ac862ac11, coefs: "b43c311cf1b9f66b35a730eb9bf251be8b27d751ec518d00652172993c78a96d"},
		"Basic-S":       {shuffle: 47360, pairs: 5920, records: 10000, bytesRead: 40000, mapCPU: 20000, mapIO: 40000, reduceCPU: 36987, simSeconds: 0x40240445a131a088, coefs: "c610f6aae70babf264f74efea705539f9b0dc70dd843930c12495323323b2dbb"},
		"Improved-S":    {shuffle: 8800, pairs: 1100, records: 10000, bytesRead: 40000, mapCPU: 17020, mapIO: 40000, reduceCPU: 4537, simSeconds: 0x402400d226a3470f, coefs: "b74fb5e8aa6ad1d5804fa0f749c9ea35f14776385049821ae4095715836f06d2"},
		"TwoLevel-S":    {shuffle: 3636, pairs: 814, records: 10000, bytesRead: 40000, mapCPU: 16734, mapIO: 40000, reduceCPU: 7284, simSeconds: 0x4024006c04d1f4fa, coefs: "f813d3347d575bd477643eb1849c59ead4707b2a7e70e2d88c07597b2fddd445"},
		"Send-Sketch":   {shuffle: 3806820, pairs: 317235, records: 20000, bytesRead: 80000, mapCPU: 1.384158e+06, mapIO: 80000, reduceCPU: 637030, simSeconds: 0x40253ed06c908a13, coefs: "cae73b62eaf4923c8cefedf079467131861ab9ea4fa9521d3cb7a41f6674b082"},
		"Send-V-2D":     {shuffle: 37752, pairs: 3146, records: 6000, bytesRead: 48000, mapCPU: 9146, mapIO: 48000, reduceCPU: 32833, simSeconds: 0x402403838b0433de, coefs: "c34eb2f2f3f768b5badbeed308244981a36d45bfbdd6d5e9f94af18e932c7636"},
		"TwoLevel-S-2D": {shuffle: 1240, pairs: 149, records: 1101, bytesRead: 8808, mapCPU: 2105, mapIO: 8808, reduceCPU: 4093, simSeconds: 0x40240029b1c09a2d, coefs: "71a47d5cceaedddd76fdfde6e1a5354a4de708f203f2e0841a0f85ef1f90ece2"},
	}
	for _, method := range Methods() {
		if Rounds(method) != 1 {
			continue
		}
		for exName, exec := range executors {
			t.Run(method+"/"+exName, func(t *testing.T) {
				f, p := goldenDataset(t, method)
				plan, err := NewRoundPlan(f, method, p)
				if err != nil {
					t.Fatal(err)
				}
				exec(t, f, method, p, plan, func(int, *mapred.StateStore) {})
				m := plan.Metrics()
				got := oneRoundGolden{
					shuffle: m.ShuffleBytes, pairs: m.PairsShuffled,
					records: m.MapRecordsRead, bytesRead: m.MapBytesRead,
					reduceCPU:  m.RoundCosts[0].ReduceCPUUnits,
					simSeconds: math.Float64bits(m.SimulatedSeconds(cluster.Paper())),
					coefs:      coefDigest(planCoefs(t, plan)),
				}
				for _, task := range m.RoundCosts[0].MapTasks {
					got.mapCPU += task.CPUUnits
					got.mapIO += task.InputBytes
				}
				if got != want[method] {
					t.Errorf("accounting drifted:\n got %#v\nwant %#v", got, want[method])
				}
			})
		}
	}
}

// hwGolden is H-WTopk's full cost accounting on one fixed dataset, plus
// digests of the per-split state files the worker leases and coordinator
// checkpoints carry between rounds.
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
	coefs      string // coefDigest of the output
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

// measureHWGolden drives the public plan with one executor, digesting the
// map side's state store between rounds.
func measureHWGolden(t *testing.T, method string, exec executor) hwGolden {
	t.Helper()
	f, p := goldenDataset(t, method)
	plan, err := NewRoundPlan(f, method, p)
	if err != nil {
		t.Fatal(err)
	}
	m := plan.NumSplits()
	var g hwGolden
	exec(t, f, method, p, plan, func(round int, st *mapred.StateStore) {
		switch round {
		case 1:
			g.stateR1 = stateDigest(st, m, hwStateR1)
		case 2:
			g.stateR2 = stateDigest(st, m, hwStateR2)
			if again := stateDigest(st, m, hwStateR1); again != g.stateR1 {
				t.Errorf("round 2 modified round-1 state files")
			}
		}
	})
	metrics := plan.Metrics()
	for r, rc := range metrics.RoundCosts {
		g.shuffle[r] = rc.ShuffleBytes
		g.broadcast[r] = rc.BroadcastBytes
		g.reduceCPU[r] = rc.ReduceCPUUnits
		for _, task := range rc.MapTasks {
			g.mapCPU[r] += task.CPUUnits
			g.mapIO[r] += task.InputBytes
		}
	}
	g.candidates = plan.Candidates()
	g.simSeconds = math.Float64bits(metrics.SimulatedSeconds(cluster.Paper()))
	g.coefs = coefDigest(planCoefs(t, plan))
	return g
}

// TestHWTopkGoldenAccounting pins H-WTopk's cost model inputs and state
// file bytes to the values the sort-and-decode mappers produced (captured
// on the commit before the index-ordered pipeline): every ctx.AddWork /
// AddIOBytes charge, every shuffled pair, |R|, the simulated running time
// bit for bit, and the exact bytes of every split's state after rounds 1
// and 2 — on both executors.
func TestHWTopkGoldenAccounting(t *testing.T) {
	for _, tc := range []struct {
		name, method string
		want         hwGolden
	}{
		{"1D", MethodHWTopk, hwGolden{
			shuffle:    [3]int64{25280, 976, 27168},
			broadcast:  [3]int64{0, 8, 164},
			mapCPU:     [3]float64{253478, 48260, 49836},
			mapIO:      [3]int64{851816, 771816, 770840},
			reduceCPU:  [3]float64{3782.125, 187, 3437},
			candidates: 41,
			simSeconds: 0x403e03d8b9ac3f85,
			stateR1:    "f51d0493fda4c9c2b289f8e1857e05e2f1cf46cdbb5da6b9472308e2cad6f298",
			stateR2:    "9063b3694f666093d83e1f79fe4d0d74967df97bc7b69165f28ef2d151572ca2",
			coefs:      "57f6f659bab48c93881d33d80339d944d939ac5281d469f6484c78240f30440e",
		}},
		{"2D", MethodHWTopk2D, hwGolden{
			shuffle:    [3]int64{6144, 2016, 1168},
			broadcast:  [3]int64{0, 8, 68},
			mapCPU:     [3]float64{146776, 13310, 13131},
			mapIO:      [3]int64{259136, 211136, 209120},
			reduceCPU:  [3]float64{852, 289, 163},
			candidates: 17,
			simSeconds: 0x403e01644580b593,
			stateR1:    "c812fd2cb206a2f73b45677b67620270268da85d6c9b997789c8db990fd9228d",
			stateR2:    "c1e983b298b112de1ad586ef237eed67286ead9c125b44ba07e50a671d527972",
			coefs:      "f155e42814184917919a13ec9cbdd79361c3c9aa94323e7f70e63bbff3ca5c73",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for exName, exec := range executors {
				t.Run(exName, func(t *testing.T) {
					if got := measureHWGolden(t, tc.method, exec); got != tc.want {
						t.Errorf("accounting drifted:\n got %#v\nwant %#v", got, tc.want)
					}
				})
			}
		})
	}
}

// figureDatasets are the seed datasets the Figs 5-18 drivers build in
// Quick mode (exper.Quick: n = 2^16, u = 2^12, 4 KiB splits, 15 nodes,
// k = 30, the paper's seed): the default, the α sweep (Figs 14-15), the n
// sweep's ends (Fig 10), the u sweep's small end (Fig 12), padded records
// at n/32 (Fig 11) and the WorldCup-like log (Figs 17-18).
type seedDataset struct {
	name string
	file *hdfs.File
	p    Params
}

func figureDatasets(t *testing.T) (sets []seedDataset) {
	t.Helper()
	const n, u, seed = 1 << 16, 1 << 12, 20111030
	add := func(name string, u int64, gen func(*hdfs.FileSystem) (*hdfs.File, error)) {
		f, err := gen(hdfs.NewFileSystem(15, 4<<10))
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, seedDataset{name, f, Params{U: u, K: 30, Seed: seed}})
	}
	zipf := func(n, u int64, alpha float64, recordSize int) func(*hdfs.FileSystem) (*hdfs.File, error) {
		spec := datagen.NewZipfSpec(n, u, alpha, seed)
		spec.RecordSize = recordSize
		return func(fs *hdfs.FileSystem) (*hdfs.File, error) { return datagen.GenerateZipf(fs, "zipf", spec) }
	}
	add("default", u, zipf(n, u, 1.1, 4))
	add("alpha=0.8", u, zipf(n, u, 0.8, 4))
	add("alpha=1.4", u, zipf(n, u, 1.4, 4))
	add("n/8", u, zipf(n/8, u, 1.1, 4))
	add("2n", u, zipf(2*n, u, 1.1, 4))
	add("u=2^6", 1<<6, zipf(n, 1<<6, 1.1, 4))
	add("512B records", u, zipf(n/32, u, 1.1, 512))
	add("worldcup", u, func(fs *hdfs.FileSystem) (*hdfs.File, error) {
		spec := datagen.NewWorldCupSpec(n, seed)
		spec.ClientBits, spec.ObjectBits = 6, 6
		return datagen.GenerateWorldCup(fs, "worldcup", spec)
	})
	return sets
}

// TestExactMethodsAgree is the paper-fidelity invariant behind the shape
// tests of Figs 5-18: Send-V, Send-Coef and H-WTopk are three routes to
// the same best k-term representation, so on the golden dataset and on
// every seed dataset the figures use they must select the identical
// coefficient set (values equal up to summation order). All three build
// v_j through the one split aggregator; with 1024-record splits these
// datasets take its radix path, the golden's 256-record splits the
// comparison-sort one.
func TestExactMethodsAgree(t *testing.T) {
	f, p := goldenDataset(t, MethodSendV)
	for _, d := range append(figureDatasets(t), seedDataset{"golden", f, p}) {
		want := run(t, NewSendV(), d.file, d.p).Rep.Coefs
		for _, a := range []Algorithm{NewSendCoef(), NewHWTopk()} {
			assertSameCoefSet(t, d.name+"/"+a.Name(), run(t, a, d.file, d.p).Rep.Coefs, want)
		}
	}
}

// assertSameCoefSet checks two coefficient lists hold the same indices
// with values equal to within float summation order.
func assertSameCoefSet(t *testing.T, name string, got, want []wavelet.Coef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d coefficients, want %d", name, len(got), len(want))
	}
	byIndex := make(map[int64]float64, len(want))
	for _, c := range want {
		byIndex[c.Index] = c.Value
	}
	for _, c := range got {
		v, ok := byIndex[c.Index]
		if !ok {
			t.Errorf("%s: selected coefficient %d, which Send-V did not", name, c.Index)
		} else if math.Abs(c.Value-v) > 1e-9*(1+math.Abs(v)) {
			t.Errorf("%s: coefficient %d = %v, Send-V has %v", name, c.Index, c.Value, v)
		}
	}
}
