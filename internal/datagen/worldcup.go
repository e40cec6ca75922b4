package datagen

import (
	"fmt"

	"wavelethist/internal/hdfs"
	"wavelethist/internal/wavelet"
	"wavelethist/internal/zipf"
)

// WorldCupSpec describes the WorldCup-like access-log generator. The real
// dataset [6] is 92 days of web-server logs; the paper keys records by
// "clientobject", the pairing of client id and object id (u ≈ 2^29, ~4·10^8
// distinct pairs over 1.35·10^9 records). We reproduce the *distributional*
// features the algorithms observe:
//
//   - client activity is heavily skewed (a few crawlers/proxies dominate);
//   - object popularity is skewed with a rotating daily "hot set"
//     (match-day pages and images);
//   - the clientobject key is the pair (client, object) packed into a
//     power-of-two domain, so distinct-pair count ≪ domain size.
type WorldCupSpec struct {
	N          int64 // records (requests)
	ClientBits uint  // domain of clients = 2^ClientBits
	ObjectBits uint  // domain of objects = 2^ObjectBits
	Days       int   // temporal structure; 92 in the real trace
	RecordSize int   // bytes per record (>= 4 when ClientBits+ObjectBits <= 32)
	Seed       uint64
}

// NewWorldCupSpec returns the scaled default: 2^10 clients × 2^10 objects
// (u = 2^20, matching the scaled Zipf default), 92 days, 4-byte records.
func NewWorldCupSpec(n int64, seed uint64) WorldCupSpec {
	return WorldCupSpec{
		N:          n,
		ClientBits: 10,
		ObjectBits: 10,
		Days:       92,
		RecordSize: 4,
		Seed:       seed,
	}
}

// U returns the clientobject key domain size.
func (s WorldCupSpec) U() int64 { return int64(1) << (s.ClientBits + s.ObjectBits) }

// GenerateWorldCup writes the access-log dataset. Keys are packed
// clientobject ids: client·2^ObjectBits + object.
func GenerateWorldCup(fs *hdfs.FileSystem, name string, spec WorldCupSpec) (*hdfs.File, error) {
	next, err := WorldCupKeys(spec)
	if err != nil {
		return nil, err
	}
	if spec.RecordSize < 4 {
		spec.RecordSize = 4
	}
	if spec.ClientBits+spec.ObjectBits > 32 && spec.RecordSize < 8 {
		return nil, fmt.Errorf("datagen: domain needs 8-byte records")
	}
	w, err := fs.Create(name, spec.RecordSize)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < spec.N; i++ {
		w.Append(next())
	}
	return w.Close(), nil
}

// WorldCupKeys returns the keys GenerateWorldCup writes for spec, in file
// order, one per call, without holding them (cmd/wavegen streams them to
// a local file).
func WorldCupKeys(spec WorldCupSpec) (func() int64, error) {
	if spec.N < 1 {
		return nil, fmt.Errorf("datagen: need at least one record")
	}
	if spec.Days < 1 {
		spec.Days = 1
	}
	if !wavelet.IsPowerOfTwo(spec.U()) {
		return nil, fmt.Errorf("datagen: worldcup domain must be a power of two")
	}

	rng := zipf.NewRNG(spec.Seed)
	numClients := int64(1) << spec.ClientBits
	numObjects := int64(1) << spec.ObjectBits
	// Client skew ~1.2: proxies and crawlers dominate request volume.
	clients := zipf.NewZipf(numClients, 1.2)
	// Object skew ~1.1 globally: site-wide assets (index pages, logos,
	// shared images) dominate every day of the trace, which is what keeps
	// heavy clientobject pairs stable across splits.
	objects := zipf.NewZipf(numObjects, 1.1)
	// Scatter rank->id so popular clients/objects are not clustered.
	clientPerm := newPermuted(numClients, spec.Seed^0x11)
	objectPerm := newPermuted(numObjects, spec.Seed^0x22)

	// Per-day hot-set: a day's matches concentrate accesses on a small
	// rotating subset of objects.
	hotSize := numObjects / 64
	if hotSize < 1 {
		hotSize = 1
	}
	hot := zipf.NewZipf(hotSize, 1.1)

	perDay := spec.N / int64(spec.Days)
	if perDay < 1 {
		perDay = 1
	}
	var i int64
	return func() int64 {
		day := min(i/perDay, int64(spec.Days)-1)
		i++
		client := clientPerm.apply(clients.Sample(rng) - 1)
		var object int64
		if rng.Bernoulli(0.35) {
			// Hot-set access (match-day pages): the hot window drifts a
			// quarter of its width per day, so consecutive days overlap
			// 75% — popular content decays over a few days rather than
			// vanishing overnight.
			off := hot.Sample(rng) - 1
			object = objectPerm.apply((day*hotSize/4 + off) % numObjects)
		} else {
			object = objectPerm.apply(objects.Sample(rng) - 1)
		}
		return client<<spec.ObjectBits | object
	}, nil
}
