#!/usr/bin/env bash
# Fails when the non-test source tree outgrows CEILING lines. The count is
# ROADMAP's size tracker; the ceiling is the count of the last PR that
# moved it, so the tree can only shrink without an explicit edit here.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# 22320 -> 22634 (PR 21): dist/queryjson.go, the batch-body scanner and its strict fallback (274 lines, +40 at its call sites and counter); nothing else grew.
# 22634 -> 22621 (PR 25): heap.Indexed (161 lines) deleted for the maintainer's own slab-indexed heaps, plus two dead functions.
# 22621 -> 22583: map-form SparseTransform, SortFreq and SparseTransform2D moved into a test file as oracles (-65) and the bitset uses math/bits (-7), paying for H-WTopk's filtered, adopting and probing mappers (+30) and heap/state-store docs (+4).
# 22583 -> 22041: unreached code deleted (in-memory TPUT and TwoSidedApprox, mapred grouped/spill modes, Transport.Ping, the second dataset recipe, dead accessors); .github/check-reach.sh now gates it.
# 22041 -> 21852: mapred's pipelined RunContext engine (pool, tokens, done channels, mapOutput/reduceTask, atomic counters, Job.Parallelism, MapCPU) deleted; an in-process build runs the fleet's map-then-reduce path, and ReduceRound checks each partial's Src and key order.
# 21852 -> 21734: mapred's Job Configuration, Distributed Cache, Counters and StateStore.Put and core's coordinator-state codec deleted (H-WTopk's rounds pass Go values), paying for per-stage key bounds and the failed-plan rule.
# 21734 -> 22017 (PR 34, +414/-131): H-WTopk's split state keeps v_j and computes single-key coefficients in closed form (hwSplitState, one-pass round 1, a StateStore of values) with the byte reader deleted (openCoefState, round 2's run copy, round 3's byte probe); ReduceRound checks tags, finite values and partial headers.
# 22017 -> 22014: one round loop (RoundPlan.Run over a map side: in-process, fleet, checkpoint restore) and one partial type (mapred.Partial) replace runLocal, roundCall, the restore loop, MapSplitResult, TaskMetrics and fillDefaults, paying for arrival checks as a worker fault and the codec's version word.
# 22014 -> 21812: the coordinator checkpoint (dist/checkpoint.go, runPlan's restore side and barrier wrapper, Config.CheckpointDir, wavehistd -checkpoints, the Restored fields) deleted; a crashed build is retried over the workers' partial caches, and Output refuses a non-finite coefficient.
# 21812 -> 21717: one GET parser (serve.ParseQuery, which the router's coalescer also calls) and one per-query estimator (Entry.estimate) replace handlePoint/handleRange, queryInt64, Entry.Point2D/Range2D, the four batch* helpers and coalesceQuery's own parsing; seven Config fields no caller set (dataset records and domain, build concurrency, retained jobs, in-flight RPCs, RPC timeout, probe timeout) and three BreakerConfig fields became constants, paying for the non-finite estimate check.
# 21717 -> 21927 (+380/-170): a map task reads key batches (RecordReader.ReadKeys and a decode-in-place keyAt; readers keep Next), partials layout 3 (varint deltas and small-integer values, its bounds-checked reader) in never-deflated map responses, a file's split tables computed once, one-read radix counting, the update-delta bound; PartialsWireBytes and the readers' buffers deleted.
# 21927 -> 22044 (+117): the Zipf sampler's certified head table (table, guide, lookup, and the exactness argument on buildHead, +108) and datagen's per-kind key streams with the head-rank permutation memo, less cmd/wavegen's copied generator loops (-27).
CEILING=22044
lines=$(find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l)
echo "non-test source: $lines lines (ceiling $CEILING)"
if [ "$lines" -gt "$CEILING" ]; then
  echo "check-size: $((lines - CEILING)) lines over; delete something or raise CEILING in .github/check-size.sh and say why" >&2
  exit 1
fi
