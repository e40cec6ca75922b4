// Package mapred is an in-process MapReduce runtime with Hadoop's
// programming model and the observability the paper's evaluation needs:
// splits processed by per-split Mappers with Close hooks, an optional
// Combiner, a per-split sort yielding one Partial per map task, a shuffle
// with exact byte accounting per intermediate pair, a single streaming
// Reducer with Close that knows which split each batch came from (one job
// shape: no spills, no global grouping), and a per-split persistent state
// store that stands in for the paper's "HDFS state files" across
// multi-round jobs (Appendix A). What a coordinator tells the mappers between rounds
// — the paper's Job Configuration and Distributed Cache — is the caller's
// to hand to its mapper factory.
package mapred

// KV is an intermediate key-value pair (k2, v2). Key is the intermediate
// key (a key-domain value or a coefficient index); Val its numeric value.
// Tag carries algorithm-specific markers (e.g. H-WTopk's round-1 "k-th
// highest/lowest" marks, or TwoLevel-S's NULL pairs). A pair does not
// name its split: for pairs that are the paper's (i, (j, w_ij)), j is the
// partial the pair arrived in, which the reducer reads from
// TaskContext.SplitID. The wire size of a pair is algorithm-defined via
// Job.PairBytes.
type KV struct {
	Key int64
	Val float64
	Tag uint8
}

// Tag values shared by the algorithms in internal/core.
const (
	TagNone     uint8 = iota
	TagMarkHigh       // H-WTopk round 1: this is its split's k-th highest coefficient
	TagMarkLow        // H-WTopk round 1: this is its split's k-th lowest coefficient
	TagNull           // TwoLevel-S: second-level sampled (x, NULL) pair
)
