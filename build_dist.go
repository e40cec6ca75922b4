package wavelethist

import (
	"context"
	"fmt"

	"wavelethist/dist"
	"wavelethist/internal/core"
)

// ErrUnsupportedMethod reports a method name no build can run — unknown
// (the error text lists the known ones) or a 1D name given to a 2D build
// and vice versa. Match with errors.Is.
var ErrUnsupportedMethod = core.ErrUnsupportedMethod

// distRoundStats aliases the coordinator's per-round profile for the
// Result conversion in wavelethist.go.
type distRoundStats = dist.RoundStats

// BuildDistributed constructs the histogram on a real multi-process
// worker fleet instead of the in-process simulated cluster: the
// coordinator ships the dataset's generation recipe plus split
// assignments to waveworker processes (or an in-process loopback fleet),
// collects their mergeable partial summaries, and merges them. Per-split
// seeding makes the result bit-identical to Build with the same seed,
// while Result.CommBytes reports the real measured wire traffic of the
// coordinator↔worker RPCs and Result.ModelCommBytes the paper's modeled
// metric for comparison against simulated builds.
//
// All seven methods run through the same plan and coordinator loop. The
// one-round methods fan out once; the three-round H-WTopk runs the full
// two-sided-TPUT round barrier:
// workers hold per-job state leases with the unsent coefficients, the
// coordinator broadcasts T1/m before round 2 and the candidate set R
// before round 3, and splits whose worker died mid-protocol are replayed
// by their new owner. Result.PerRound carries the per-round profile.
func BuildDistributed(ctx context.Context, d *Dataset, method Method, opts Options, coord *dist.Coordinator) (*Result, error) {
	if d == nil || d.file == nil {
		return nil, fmt.Errorf("wavelethist: nil dataset")
	}
	if coord == nil {
		return nil, fmt.Errorf("wavelethist: nil coordinator")
	}
	if d.spec == nil {
		return nil, fmt.Errorf("wavelethist: dataset has no distributable spec")
	}
	out, stats, err := coord.Build(ctx, *d.spec, d.file, string(method), opts.toParams(d.Domain()))
	if err != nil {
		return nil, err
	}
	return &Result{
		Histogram:        &Histogram{rep: out.Rep},
		DistJobID:        stats.JobID,
		CommBytes:        stats.WireBytes,
		ModelCommBytes:   out.Metrics.TotalCommBytes(),
		WireBytes:        stats.WireBytes,
		Distributed:      true,
		Rounds:           out.Metrics.Rounds,
		PerRound:         perRoundStats(out.Metrics, stats.PerRound),
		CandidateSetSize: stats.CandidateSetSize,
		CachedSplits:     stats.CachedSplits,
		RecordsRead:      out.Metrics.MapRecordsRead,
		BytesRead:        out.Metrics.MapBytesRead,
		WallTime:         out.Metrics.WallTime,
		metrics:          out.Metrics,
	}, nil
}
