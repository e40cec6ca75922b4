package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"wavelethist/internal/core"
	"wavelethist/internal/datagen"
	"wavelethist/internal/hdfs"
	"wavelethist/internal/wavelet"
)

// ErrUnsupportedMethod reports a method name no build can run — unknown
// (the error text lists the known ones) or asked of the wrong
// dimensionality's Build. Match with errors.Is.
var ErrUnsupportedMethod = core.ErrUnsupportedMethod

// DatasetSpec is the wire-shippable recipe for a dataset: everything a
// worker needs to materialize an identical copy of the coordinator's
// input in its own (simulated-HDFS) storage. Generation is fully
// deterministic, so shipping the recipe instead of the data keeps map
// RPCs small — the distributed analogue of HDFS data locality, where the
// records are already on the DataNodes and only summaries cross the
// switch.
type DatasetSpec struct {
	// Kind selects the generator: "zipf", "worldcup" or "keys".
	Kind string `json:"kind"`

	Records    int64   `json:"records,omitempty"`
	Domain     int64   `json:"domain,omitempty"`
	Alpha      float64 `json:"alpha,omitempty"`
	RecordSize int     `json:"record_size,omitempty"`
	ChunkSize  int64   `json:"chunk_size,omitempty"`
	Nodes      int     `json:"nodes,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`

	// worldcup
	ClientBits uint `json:"client_bits,omitempty"`
	ObjectBits uint `json:"object_bits,omitempty"`

	// keys ships the caller-provided records verbatim (once, at dataset
	// registration — not per map RPC).
	Keys []int64 `json:"keys,omitempty"`
}

// Normalize fills unset fields with the library defaults, so that equal
// logical datasets have equal fingerprints.
func (s DatasetSpec) Normalize() DatasetSpec {
	if s.ChunkSize == 0 {
		s.ChunkSize = hdfs.DefaultChunkSize
	}
	if s.Nodes == 0 {
		s.Nodes = 15
	}
	switch s.Kind {
	case "zipf":
		if s.Alpha == 0 {
			s.Alpha = 1.1
		}
		if s.RecordSize == 0 {
			s.RecordSize = 4
		}
	case "worldcup":
		if s.ClientBits == 0 {
			s.ClientBits = 10
		}
		if s.ObjectBits == 0 {
			s.ObjectBits = 10
		}
		if s.RecordSize == 0 {
			s.RecordSize = 4
			if s.ClientBits+s.ObjectBits > 32 {
				s.RecordSize = 8
			}
		}
		s.Domain = int64(1) << (s.ClientBits + s.ObjectBits)
	case "keys":
		if s.RecordSize == 0 {
			s.RecordSize = 4
			if s.Domain > 1<<32 {
				s.RecordSize = 8
			}
		}
	}
	return s
}

// Fingerprint is a stable content hash of the normalized spec, used as
// the workers' dataset-cache key.
func (s DatasetSpec) Fingerprint() string {
	b, _ := json.Marshal(s.Normalize())
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// Materialize deterministically generates the dataset, returning the file
// and its key-domain size u.
func (s DatasetSpec) Materialize() (*hdfs.File, int64, error) {
	s = s.Normalize()
	switch s.Kind {
	case "zipf":
		fs := hdfs.NewFileSystem(s.Nodes, s.ChunkSize)
		spec := datagen.NewZipfSpec(s.Records, s.Domain, s.Alpha, s.Seed)
		spec.RecordSize = s.RecordSize
		f, err := datagen.GenerateZipf(fs, "zipf", spec)
		if err != nil {
			return nil, 0, err
		}
		return f, s.Domain, nil
	case "worldcup":
		spec := datagen.NewWorldCupSpec(s.Records, s.Seed)
		spec.ClientBits = s.ClientBits
		spec.ObjectBits = s.ObjectBits
		spec.RecordSize = s.RecordSize
		fs := hdfs.NewFileSystem(s.Nodes, s.ChunkSize)
		f, err := datagen.GenerateWorldCup(fs, "worldcup", spec)
		if err != nil {
			return nil, 0, err
		}
		return f, spec.U(), nil
	case "keys":
		if len(s.Keys) == 0 {
			return nil, 0, fmt.Errorf("dist: empty key set")
		}
		if !wavelet.IsPowerOfTwo(s.Domain) {
			return nil, 0, fmt.Errorf("dist: domain %d is not a power of two", s.Domain)
		}
		fs := hdfs.NewFileSystem(s.Nodes, s.ChunkSize)
		w, err := fs.Create("user", s.RecordSize)
		if err != nil {
			return nil, 0, err
		}
		for _, k := range s.Keys {
			if k < 0 || k >= s.Domain {
				return nil, 0, fmt.Errorf("dist: key %d outside domain [0, %d)", k, s.Domain)
			}
			w.Append(k)
		}
		return w.Close(), s.Domain, nil
	default:
		return nil, 0, fmt.Errorf("dist: unknown dataset kind %q (want zipf, worldcup or keys)", s.Kind)
	}
}
