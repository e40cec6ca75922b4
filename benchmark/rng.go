package main

// splitmix64 is the benchmark's only source of randomness. Every input —
// datasets, query keys, update streams — is drawn from a stream forked off
// the -seed flag, so one seed always gives the same inputs, and the program
// under test receives the generated inputs only, never the seed's stream.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). n is at most a key domain (2^20), so the
// modulo bias against 2^64 is below 1e-13.
func (r *splitmix64) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// fork derives an independent stream for one purpose, so adding a consumer
// does not shift the values an existing one sees.
func fork(seed, purpose uint64) *splitmix64 {
	r := splitmix64{s: seed ^ purpose*0xd1342543de82ef95}
	r.next()
	return &r
}

// Stream purposes.
const (
	purposeDataset uint64 = iota + 1
	purposeQueries
	purposeUpdates
)
