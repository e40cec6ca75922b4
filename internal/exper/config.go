// Package exper reproduces the paper's evaluation (Section 5): one driver
// per figure, each running the relevant methods over scaled-down datasets
// and reporting the same series the paper plots — communication bytes,
// end-to-end running time (via the heterogeneous-cluster cost model), and
// SSE. cmd/experiments runs the drivers and prints the paper-vs-measured
// tables.
package exper

import (
	"fmt"

	"wavelethist/internal/cluster"
	"wavelethist/internal/core"
	"wavelethist/internal/datagen"
	"wavelethist/internal/hdfs"
)

// Config is the scaled analogue of the paper's default setup. The paper's
// defaults: 50 GB (n = 13.4·10⁹ 4-byte records), u = 2²⁹, α = 1.1,
// k = 30, ε = 10⁻⁴, β = 256 MB (m = 200 splits), B = 50% of 100 Mbps.
// The scaled defaults keep the dimensionless knobs comparable: m = 256
// splits, k = 30, sampling probability p = 1/(ε²n) ≈ 0.06 (the paper's is
// ≈ 0.0075), 15 DataNodes.
type Config struct {
	N          int64   // records (default 2^22)
	U          int64   // domain (default 2^18)
	Alpha      float64 // skew (default 1.1)
	K          int     // coefficients (default 30)
	Epsilon    float64 // sampling error (default 2e-3)
	ChunkSize  int64   // split size β (default 64 KiB -> m = 256, paper: m = 200)
	RecordSize int     // bytes (default 4)
	Nodes      int     // DataNodes (default 15)
	Seed       uint64
	Bandwidth  float64 // fraction of the 100 Mbps switch (default 0.5)

	// Scale divides the simulated hardware rates (CPU ops/s, disk MB/s,
	// switch Mbps) to compensate for datasets ~2000× smaller than the
	// paper's: with paper-rate hardware on scaled data, the fixed
	// per-round overhead would swamp every network and CPU effect and
	// all running-time figures would go flat. Scaling the rates by the
	// data-size ratio preserves the paper's time balance (communication
	// dominates Send-V, sketch updates dominate Send-Sketch, overhead
	// taxes H-WTopk's three rounds). Default 2000. The fixed round
	// overhead itself deliberately does NOT scale — that is physical.
	Scale float64

	// SketchKBPerLogU is Send-Sketch's per-split budget in KiB per
	// log2(u). The paper recommends 20; at our split sizes (per-split
	// frequency vectors ~2000× smaller, domain only ~2000× smaller)
	// 20 would make every sketch larger than the data it summarizes, so
	// the scaled default is 2. Figure 9 sweeps this.
	SketchKBPerLogU int64

	// Quick shrinks every dataset for unit tests and smoke benches.
	Quick bool
}

// Default returns the scaled default configuration.
func Default() Config {
	return Config{
		N:               1 << 22,
		U:               1 << 18,
		Alpha:           1.1,
		K:               30,
		Epsilon:         2e-3,
		ChunkSize:       64 << 10,
		RecordSize:      4,
		Nodes:           15,
		Seed:            20111030, // the paper's arXiv date
		Bandwidth:       0.5,
		Scale:           2000,
		SketchKBPerLogU: 2,
	}
}

// Quick returns a fast configuration for tests and smoke runs.
func Quick() Config {
	c := Default()
	c.N = 1 << 16
	c.U = 1 << 12
	c.ChunkSize = 4 << 10 // m = 64
	c.Epsilon = 1.5e-2
	c.Quick = true
	return c
}

// Cluster returns the simulated cluster at the configured bandwidth and
// hardware scale.
func (c Config) Cluster() *cluster.Cluster {
	cl := cluster.Paper()
	cl.BandwidthFrac = c.Bandwidth
	scale := c.Scale
	if scale <= 0 {
		scale = 1
	}
	cl.CPUOpsPerSec /= scale
	cl.SwitchMbps /= scale
	for i := range cl.Nodes {
		cl.Nodes[i].DiskMBps /= scale
	}
	return cl
}

// Params returns core parameters derived from the config.
func (c Config) Params() core.Params {
	kb := c.SketchKBPerLogU
	if kb <= 0 {
		kb = 2
	}
	return core.Params{
		U:              c.U,
		K:              c.K,
		Epsilon:        c.Epsilon,
		Seed:           c.Seed,
		SketchBytes:    kb << 10 * int64(log2(c.U)),
		CombineEnabled: true,
	}.Defaults()
}

// dataset materializes the Zipf dataset for this config.
func (c Config) dataset() (*hdfs.File, error) {
	fs := hdfs.NewFileSystem(c.Nodes, c.ChunkSize)
	spec := datagen.NewZipfSpec(c.N, c.U, c.Alpha, c.Seed)
	spec.RecordSize = c.RecordSize
	return datagen.GenerateZipf(fs, "zipf", spec)
}

// worldcup materializes the WorldCup-like dataset (Figures 17-19). The
// domain matches the Zipf default, as in the paper (both u ≈ 2^29 there).
func (c Config) worldcup() (*hdfs.File, error) {
	fs := hdfs.NewFileSystem(c.Nodes, c.ChunkSize)
	spec := datagen.NewWorldCupSpec(c.N, c.Seed)
	if c.Quick {
		spec.ClientBits, spec.ObjectBits = 6, 6
	} else {
		spec.ClientBits, spec.ObjectBits = 8, 8
	}
	return datagen.GenerateWorldCup(fs, "worldcup", spec)
}

func (c Config) String() string {
	return fmt.Sprintf("n=%d u=2^%d α=%.1f k=%d ε=%.0e β=%dKiB m≈%d B=%.0f%%",
		c.N, log2(c.U), c.Alpha, c.K, c.Epsilon, c.ChunkSize>>10,
		c.N*int64(c.RecordSize)/c.ChunkSize, c.Bandwidth*100)
}

func log2(u int64) int {
	l := 0
	for int64(1)<<uint(l+1) <= u {
		l++
	}
	return l
}
