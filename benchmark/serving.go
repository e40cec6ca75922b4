package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"wavelethist"
	"wavelethist/ha"
	"wavelethist/internal/datagen"
	"wavelethist/internal/wavelet"
	"wavelethist/serve"
)

// served is the histogram every serving workload queries: a Send-V build
// (exact) of a Zipf file at serving-scale k and domain. Query cost depends
// on k and u (error-tree depth and index size), not on the record count,
// so the file is kept small to keep set-up short.
type served struct {
	ds   *wavelethist.Dataset
	h    *wavelethist.Histogram
	comm int64   // modelled communication of the Send-V build
	genS float64 // dataset generation time
}

func buildServed(sz sizes, seed uint64) (*served, error) {
	t0 := time.Now()
	ds, err := wavelethist.NewZipfDataset(wavelethist.ZipfOptions{
		Records: sz.ServeRecords, Domain: sz.Domain, Alpha: 1.1,
		Seed: fork(seed, purposeDataset).next(),
	})
	if err != nil {
		return nil, err
	}
	genS := time.Since(t0).Seconds()
	res, err := wavelethist.Build(ds, wavelethist.SendV, wavelethist.Options{K: sz.ServeK, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &served{ds: ds, h: res.Histogram, comm: res.ModelCommBytes, genS: genS}, nil
}

// accuracy is the oracle for sse_ratio: the exact frequencies of a dataset
// and the smallest SSE any k-term representation of them can have.
type accuracy struct {
	exact map[int64]float64
	ideal float64
}

func newAccuracy(exact map[int64]float64, u int64, k int) accuracy {
	w := wavelet.Transform(datagen.DenseFrequencies(exact, u))
	return accuracy{exact: exact, ideal: wavelet.IdealSSE(w, k)}
}

// ratio is the histogram's SSE against the exact frequencies over the
// ideal k-term SSE: 1 for an exact method, a little above for a sampled
// or maintained one.
func (a accuracy) ratio(h *wavelethist.Histogram) float64 {
	return h.SSE(a.exact) / a.ideal
}

// query is one pre-generated estimate request and its oracle answer.
type query struct {
	name    int // index into the published names
	isRange bool
	lo, hi  int64 // lo is the key of a point query
	want    float64
}

// genQueries draws n queries over uniform keys; kind picks point, range,
// or alternating ("mixed": even positions point, odd range). Names rotate
// so consecutive queries hit different histograms.
func genQueries(r *splitmix64, n int, sz sizes, kind string, h *wavelethist.Histogram) []query {
	qs := make([]query, n)
	for i := range qs {
		q := &qs[i]
		q.name = i % sz.Names
		q.isRange = kind == "range" || (kind == "mixed" && i%2 == 1)
		q.lo = r.intn(sz.Domain)
		if q.isRange {
			q.hi = q.lo + sz.RangeWidth - 1 // may pass the domain end: the clamp contract applies
			q.want = h.RangeCount(q.lo, q.hi)
		} else {
			q.want = h.PointEstimate(q.lo)
		}
	}
	return qs
}

func (q query) batchQuery() serve.BatchQuery {
	if q.isRange {
		return serve.BatchQuery{Op: "range", Lo: q.lo, Hi: q.hi}
	}
	return serve.BatchQuery{Op: "point", Key: q.lo}
}

// batchQueries is a batch in the form Entry.Batch and the batch endpoints
// take.
func batchQueries(b []query) []serve.BatchQuery {
	in := make([]serve.BatchQuery, len(b))
	for i, q := range b {
		in[i] = q.batchQuery()
	}
	return in
}

// path is the query's single-estimate request path.
func (q query) path(name string) string {
	if q.isRange {
		return "/v1/hist/" + name + "/range?lo=" + strconv.FormatInt(q.lo, 10) + "&hi=" + strconv.FormatInt(q.hi, 10)
	}
	return "/v1/hist/" + name + "/point?key=" + strconv.FormatInt(q.lo, 10)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// batchShape is the cheap check applied to every timed batch response:
// status, and one estimate per query with no per-query error.
func batchShape(status int, body []byte, n int) bool {
	return status == http.StatusOK && bytes.Count(body, estimateKey) == n && !bytes.Contains(body, []byte(`"error"`))
}

// batchEquals decodes a batch response and compares every estimate with
// the oracle bit for bit.
func batchEquals(body []byte, want []query) bool {
	var out struct {
		Results []serve.BatchResult `json:"results"`
	}
	if json.Unmarshal(body, &out) != nil || len(out.Results) != len(want) {
		return false
	}
	for i, r := range out.Results {
		if r.Error != "" || !sameBits(r.Estimate, want[i].want) {
			return false
		}
	}
	return true
}

// fullCheckEvery: in a timed phase every response is checked for status
// and shape, and one in this many is compared with the oracle in full.
const fullCheckEvery = 64

// shard is one primary with one synced read replica.
type shard struct {
	primary, replica         *serve.Server
	primaryNode, replicaNode *httpNode
	follower                 *ha.Replica
}

// cluster is the routed topology of routed_get and routed_batch: two
// shards, each a primary plus one synced replica, behind one router with
// coalescing off, all built with the constructors the daemons use.
type cluster struct {
	shards []*shard
	spec   []ha.Shard // the topology as the router was given it
	router *ha.Router
	front  *httpNode
	names  []string
}

// startCluster brings the topology up and publishes a private copy of h
// under sz.Names names, half on each shard. Copies are decoded from the
// wire format so each name has its own index in memory, as separately
// built histograms would.
func startCluster(sz sizes, h *wavelethist.Histogram) (*cluster, error) {
	c := &cluster{}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()
	var err error
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("s%d", i)
		sh := &shard{}
		c.shards = append(c.shards, sh)
		if sh.primary, err = serve.NewServer(serve.Config{Shard: id}); err != nil {
			return nil, err
		}
		if sh.replica, err = serve.NewServer(serve.Config{Shard: id, ReadOnly: true}); err != nil {
			return nil, err
		}
		if sh.primaryNode, err = serveTCP(sh.primary); err != nil {
			return nil, err
		}
		if sh.replicaNode, err = serveTCP(sh.replica); err != nil {
			return nil, err
		}
		sh.follower = ha.NewReplica(sh.replica, sh.primaryNode.url, time.Second)
		c.spec = append(c.spec, ha.Shard{ID: id, Primary: sh.primaryNode.url, Replicas: []string{sh.replicaNode.url}})
	}
	if c.router, err = ha.NewRouterConfig(c.spec, ha.RouterConfig{}); err != nil {
		return nil, err
	}
	if c.front, err = serveTCP(c.router); err != nil {
		return nil, err
	}
	wire, err := h.MarshalBinary()
	if err != nil {
		return nil, err
	}
	perShard := map[string]int{}
	for n := 0; len(c.names) < sz.Names; n++ {
		if n > 64*sz.Names {
			return nil, fmt.Errorf("no %d names with half on each shard", sz.Names)
		}
		name := fmt.Sprintf("h%d", n)
		id := c.router.Shard(name).ID
		if perShard[id] >= (sz.Names+1)/2 {
			continue
		}
		perShard[id]++
		cp, err := wavelethist.UnmarshalHistogram(wire)
		if err != nil {
			return nil, err
		}
		if _, err := c.shardOf(name).primary.Registry().Publish(name, cp); err != nil {
			return nil, err
		}
		c.names = append(c.names, name)
	}
	for _, sh := range c.shards {
		if err := sh.follower.SyncOnce(context.Background()); err != nil {
			return nil, err
		}
	}
	ok = true
	return c, nil
}

func (c *cluster) close() {
	if c.front != nil {
		c.front.close()
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, sh := range c.shards {
		for _, n := range []*httpNode{sh.primaryNode, sh.replicaNode} {
			if n != nil {
				n.close()
			}
		}
		for _, s := range []*serve.Server{sh.primary, sh.replica} {
			if s != nil {
				s.Close()
			}
		}
	}
}

// shardOf is the shard that owns a name (shard IDs are s0, s1).
func (c *cluster) shardOf(name string) *shard {
	return c.shards[int(c.router.Shard(name).ID[1]-'0')]
}

// upstreamConns is the number of connections the shard primaries have
// accepted so far — from the router, since nothing else dials them during
// a routed phase.
func (c *cluster) upstreamConns() int64 {
	var n int64
	for _, sh := range c.shards {
		n += sh.primaryNode.newConns.Load()
	}
	return n
}
