package wavelethist

import (
	"fmt"

	"wavelethist/dist"
	"wavelethist/internal/datagen"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/wavelet"
)

// Dataset is a keyed record file stored in the simulated HDFS, ready to be
// processed by the construction methods.
type Dataset struct {
	file   *hdfs.File
	domain int64
	// spec is the deterministic generation recipe, kept so distributed
	// builds can ship it to workers instead of the data.
	spec *dist.DatasetSpec
}

// Spec returns the dataset's generation recipe — what BuildDistributed
// ships to workers so they can materialize an identical local copy.
func (d *Dataset) Spec() *dist.DatasetSpec { return d.spec }

// Domain returns the key-domain size u (a power of two).
func (d *Dataset) Domain() int64 { return d.domain }

// NumRecords returns the number of records n.
func (d *Dataset) NumRecords() int64 { return d.file.NumRecords }

// SizeBytes returns the stored file size.
func (d *Dataset) SizeBytes() int64 { return d.file.Size() }

// NumSplits returns the number of MapReduce splits m at the given split
// size (0 = chunk size).
func (d *Dataset) NumSplits(splitSize int64) int { return len(d.file.Splits(splitSize)) }

// ExactFrequencies scans the whole dataset and returns the ground-truth
// frequency map (for accuracy evaluation; the algorithms never call this).
func (d *Dataset) ExactFrequencies() map[int64]float64 {
	return datagen.ExactFrequencies(d.file)
}

// ZipfOptions configures a synthetic Zipfian dataset, the paper's primary
// synthetic workload.
type ZipfOptions struct {
	Records int64   // n
	Domain  int64   // u, a power of two
	Alpha   float64 // skew (paper: 0.8 / 1.1 / 1.4; default 1.1)
	// RecordSize pads each record to this many bytes (default 4: the
	// paper's key-only records).
	RecordSize int
	// ChunkSize is the simulated HDFS chunk size (default 64 KiB, the
	// scaled analogue of the paper's 256 MB).
	ChunkSize int64
	// Nodes is the number of simulated DataNodes (default 15, the
	// paper's slave count).
	Nodes int
	Seed  uint64
}

// NewZipfDataset generates a Zipfian dataset.
func NewZipfDataset(o ZipfOptions) (*Dataset, error) {
	return newDataset(dist.DatasetSpec{
		Kind: "zipf", Records: o.Records, Domain: o.Domain, Alpha: o.Alpha,
		RecordSize: o.RecordSize, ChunkSize: o.ChunkSize, Nodes: o.Nodes, Seed: o.Seed,
	})
}

// newDataset materializes a dataset through its distributable spec — the
// one recipe workers also run — so the local file and every worker's copy
// are identical by construction. Unset fields take DatasetSpec.Normalize's
// defaults.
func newDataset(spec dist.DatasetSpec) (*Dataset, error) {
	spec = spec.Normalize()
	file, u, err := spec.Materialize()
	if err != nil {
		return nil, fmt.Errorf("wavelethist: %w", err)
	}
	return &Dataset{file: file, domain: u, spec: &spec}, nil
}

// WorldCupOptions configures the WorldCup-like access-log dataset (the
// scaled stand-in for the paper's real 1998 WorldCup trace; see DESIGN.md
// for the substitution rationale).
type WorldCupOptions struct {
	Records    int64
	ClientBits uint // clients = 2^ClientBits (default 10)
	ObjectBits uint // objects = 2^ObjectBits (default 10)
	ChunkSize  int64
	Nodes      int
	Seed       uint64
}

// NewWorldCupDataset generates the access-log dataset keyed by the packed
// clientobject attribute.
func NewWorldCupDataset(o WorldCupOptions) (*Dataset, error) {
	return newDataset(dist.DatasetSpec{
		Kind: "worldcup", Records: o.Records, ClientBits: o.ClientBits, ObjectBits: o.ObjectBits,
		ChunkSize: o.ChunkSize, Nodes: o.Nodes, Seed: o.Seed,
	})
}

// KeysOptions configures a dataset built from caller-provided keys.
type KeysOptions struct {
	// Domain is the key-domain size u (power of two). Keys must lie in
	// [0, Domain).
	Domain     int64
	RecordSize int // default 4 (8 required when Domain > 2^32)
	ChunkSize  int64
	Nodes      int
}

// NewDatasetFromKeys loads caller-provided keys — the path for adopting
// this library on real data.
func NewDatasetFromKeys(keys []int64, o KeysOptions) (*Dataset, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("wavelethist: empty key set")
	}
	if !wavelet.IsPowerOfTwo(o.Domain) {
		return nil, fmt.Errorf("wavelethist: domain %d is not a power of two", o.Domain)
	}
	for _, k := range keys {
		if k < 0 || k >= o.Domain {
			return nil, fmt.Errorf("wavelethist: key %d outside domain [0, %d)", k, o.Domain)
		}
	}
	return newDataset(dist.DatasetSpec{
		Kind: "keys", Domain: o.Domain, RecordSize: o.RecordSize,
		ChunkSize: o.ChunkSize, Nodes: o.Nodes, Keys: append([]int64(nil), keys...),
	})
}
