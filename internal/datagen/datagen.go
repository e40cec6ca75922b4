// Package datagen generates the paper's evaluation datasets into the
// simulated HDFS: Zipfian key datasets with configurable skew α, domain u,
// record count n and record size (Section 5's synthetic workloads), and a
// WorldCup-like access-log dataset standing in for the 1998 WorldCup trace
// (the paper's real dataset). The substitution is documented in DESIGN.md:
// the algorithms only observe the key-frequency distribution of the
// clientobject attribute, which the paper itself notes is approximated
// "fairly well" by Zipfian data of matching (α, u, n).
package datagen

import (
	"fmt"

	"wavelethist/internal/hdfs"
	"wavelethist/internal/wavelet"
	"wavelethist/internal/zipf"
)

// ZipfSpec describes a synthetic Zipfian dataset.
type ZipfSpec struct {
	N          int64   // number of records
	U          int64   // key domain size (power of two)
	Alpha      float64 // skew
	RecordSize int     // bytes per record (>= 4); key + zero padding
	Seed       uint64
	// PermuteKeys scatters frequency ranks across the key domain with a
	// keyed bijection (real key spaces are not sorted by popularity).
	// Default true via NewZipfSpec.
	PermuteKeys bool
}

// NewZipfSpec returns the scaled-down analogue of the paper's defaults:
// α = 1.1, 4-byte records, permuted keys.
func NewZipfSpec(n, u int64, alpha float64, seed uint64) ZipfSpec {
	return ZipfSpec{N: n, U: u, Alpha: alpha, RecordSize: 4, Seed: seed, PermuteKeys: true}
}

func (s ZipfSpec) validate() error {
	if s.N < 1 {
		return fmt.Errorf("datagen: need at least one record")
	}
	if !wavelet.IsPowerOfTwo(s.U) {
		return fmt.Errorf("datagen: domain %d is not a power of two", s.U)
	}
	if s.RecordSize < 4 {
		return fmt.Errorf("datagen: record size %d < 4", s.RecordSize)
	}
	if s.Alpha <= 0 {
		return fmt.Errorf("datagen: alpha must be positive")
	}
	return nil
}

// GenerateZipf writes a Zipfian dataset to the file system. Records are
// i.i.d. samples (so keys are randomly permuted in file order, as the
// paper requires of its generated data).
func GenerateZipf(fs *hdfs.FileSystem, name string, spec ZipfSpec) (*hdfs.File, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	w, err := fs.Create(name, spec.RecordSize)
	if err != nil {
		return nil, err
	}
	w.Reserve(spec.N)
	z := zipf.NewZipf(spec.U, spec.Alpha)
	rng := zipf.NewRNG(spec.Seed)
	var perm *zipf.Perm
	if spec.PermuteKeys {
		perm = zipf.NewPerm(spec.U, spec.Seed^0xabcdef)
	}
	for i := int64(0); i < spec.N; i++ {
		rank := z.Sample(rng) - 1 // 0-based
		key := rank
		if perm != nil {
			key = perm.Apply(rank)
		}
		w.Append(key)
	}
	return w.Close(), nil
}

// GenerateZipfVar writes a Zipfian dataset with variable-length records
// whose payload lengths cycle deterministically in [0, maxPayload).
func GenerateZipfVar(fs *hdfs.FileSystem, name string, spec ZipfSpec, maxPayload int) (*hdfs.File, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if maxPayload < 1 {
		maxPayload = 1
	}
	w, err := fs.CreateVar(name)
	if err != nil {
		return nil, err
	}
	z := zipf.NewZipf(spec.U, spec.Alpha)
	rng := zipf.NewRNG(spec.Seed)
	var perm *zipf.Perm
	if spec.PermuteKeys {
		perm = zipf.NewPerm(spec.U, spec.Seed^0xabcdef)
	}
	for i := int64(0); i < spec.N; i++ {
		rank := z.Sample(rng) - 1
		key := rank
		if perm != nil {
			key = perm.Apply(rank)
		}
		w.Append(key, int(rng.Int63n(int64(maxPayload))))
	}
	return w.Close(), nil
}

// ExactFrequencies scans a file and returns its exact key-frequency map —
// the ground truth v for SSE evaluation. (The evaluation harness, not the
// algorithms, uses this.)
func ExactFrequencies(f *hdfs.File) map[int64]float64 {
	freq := make(map[int64]float64)
	var keys []int64
	for _, split := range f.Splits(0) {
		var r hdfs.RecordReader
		if f.RecordSize == 0 {
			r = hdfs.NewSequentialVarReader(split)
		} else {
			r = hdfs.NewSequentialReader(split)
		}
		for keys = r.ReadKeys(keys[:0], 8192); len(keys) > 0; keys = r.ReadKeys(keys[:0], 8192) {
			for _, k := range keys {
				freq[k]++
			}
		}
	}
	return freq
}

// DenseFrequencies materializes a dense frequency vector over [0, u).
// Only for domains small enough to hold in memory (SSE experiments).
func DenseFrequencies(freq map[int64]float64, u int64) []float64 {
	v := make([]float64, u)
	for x, c := range freq {
		if x >= 0 && x < u {
			v[x] += c
		}
	}
	return v
}
