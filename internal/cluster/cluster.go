// Package cluster models the paper's execution environment: a 16-node
// heterogeneous Hadoop cluster on a shared 100 Mbps switch. It converts a
// MapReduce round's deterministic work metrics (bytes scanned, abstract CPU
// units, shuffle bytes, broadcast bytes) into a simulated end-to-end
// running time using list scheduling over map slots, per-node CPU/disk
// rates, and the switch bandwidth — the three terms that dominate the
// paper's measured times (split scans, per-record CPU, shuffle transfer,
// plus fixed per-round MapReduce overhead).
package cluster

import (
	"fmt"
	"sort"
)

// Node describes one cluster machine.
type Node struct {
	Name      string
	CPUFactor float64 // relative CPU speed; 1.0 = the paper's config-(1) Xeon 5120
	DiskMBps  float64 // local sequential scan rate
	MapSlots  int     // concurrent map tasks
}

// Cluster is the simulated cluster plus the cost-model calibration knobs.
type Cluster struct {
	Nodes []Node

	// SwitchMbps is the full network bandwidth of the shared switch
	// (100 Mbps in the paper). BandwidthFrac models a busy data center:
	// the paper's default is 50% (Section 5), varied in Figure 16.
	SwitchMbps    float64
	BandwidthFrac float64

	// RoundOverheadSec is the fixed per-MapReduce-round overhead (job
	// setup, task scheduling, state files). The paper stresses this is why
	// 3-round H-WTopk pays a constant price and sampling's single round
	// wins.
	RoundOverheadSec float64

	// CPUOpsPerSec calibrates abstract work units: the rate at which a
	// CPUFactor-1.0 node retires one unit (roughly one hash-map update or
	// one coefficient operation).
	CPUOpsPerSec float64

	// ReducerNode is the machine the single Reducer is pinned to; the
	// paper customizes the JobTracker to run the coordinator on a
	// designated config-(3) machine.
	ReducerNode int
}

// Paper returns the evaluation cluster of Section 5: 16 machines in four
// configurations — 9× (2 GB, Xeon 5120 1.86 GHz), 4× (4 GB, Xeon E5405
// 2 GHz), 2× (6 GB, Xeon E5506 2.13 GHz), 1× (2 GB, Core 2 6300 1.86 GHz)
// — on a 100 Mbps switch with 50% available bandwidth by default. The
// master runs on a config-(2) machine and the reducer on a config-(3)
// machine; as in the paper we model the 15 slaves that run TaskTrackers
// and DataNodes (the master runs only JobTracker/NameNode).
func Paper() *Cluster {
	c := &Cluster{
		SwitchMbps:       100,
		BandwidthFrac:    0.5,
		RoundOverheadSec: 10,
		CPUOpsPerSec:     5e7,
	}
	add := func(n int, name string, cpu, disk float64) {
		for i := 0; i < n; i++ {
			c.Nodes = append(c.Nodes, Node{
				Name:      fmt.Sprintf("%s-%d", name, i),
				CPUFactor: cpu,
				DiskMBps:  disk,
				MapSlots:  1,
			})
		}
	}
	add(9, "xeon5120", 1.00, 60)  // config (1)
	add(3, "xeonE5405", 1.08, 70) // config (2): one of the 4 hosts the master
	add(2, "xeonE5506", 1.15, 80) // config (3)
	add(1, "core2-6300", 0.95, 55)
	c.ReducerNode = 12 // first config-(3) machine
	return c
}

// Validate checks the configuration.
func (c *Cluster) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("cluster: no nodes")
	}
	if c.SwitchMbps <= 0 || c.BandwidthFrac <= 0 || c.BandwidthFrac > 1 {
		return fmt.Errorf("cluster: invalid bandwidth (%v Mbps × %v)", c.SwitchMbps, c.BandwidthFrac)
	}
	if c.CPUOpsPerSec <= 0 {
		return fmt.Errorf("cluster: invalid CPU rate")
	}
	if c.ReducerNode < 0 || c.ReducerNode >= len(c.Nodes) {
		return fmt.Errorf("cluster: reducer node %d out of range", c.ReducerNode)
	}
	for _, n := range c.Nodes {
		if n.CPUFactor <= 0 || n.DiskMBps <= 0 || n.MapSlots < 1 {
			return fmt.Errorf("cluster: invalid node %q", n.Name)
		}
	}
	return nil
}

// TaskCost is the deterministic work profile of one map task.
type TaskCost struct {
	PreferredNode int   // data-local node (split placement)
	InputBytes    int64 // bytes pulled from the local DataNode
	CPUUnits      float64
}

// RoundCost is the work profile of one MapReduce round.
type RoundCost struct {
	MapTasks       []TaskCost
	ShuffleBytes   int64 // intermediate pairs crossing the network
	BroadcastBytes int64 // job-conf / distributed-cache bytes, replicated to every slave
	ReduceCPUUnits float64
}

// netSeconds converts bytes on the shared switch into seconds at the
// currently available bandwidth.
func (c *Cluster) netSeconds(bytes int64) float64 {
	bps := c.SwitchMbps * c.BandwidthFrac * 1e6 / 8
	return float64(bytes) / bps
}

// taskSeconds is the duration of a map task on a given node; remote tasks
// additionally pull their split over the switch.
func (c *Cluster) taskSeconds(t TaskCost, node int) float64 {
	n := c.Nodes[node]
	sec := float64(t.InputBytes)/(n.DiskMBps*1e6) + t.CPUUnits/(c.CPUOpsPerSec*n.CPUFactor)
	if node != t.PreferredNode {
		sec += c.netSeconds(t.InputBytes) // non-data-local mapper
	}
	return sec
}

// MapPhaseTime schedules the map tasks over the cluster's map slots with
// locality-aware greedy list scheduling (Hadoop's default scheduler tries
// data-local first, then steals to idle nodes) and returns the makespan.
func (c *Cluster) MapPhaseTime(tasks []TaskCost) float64 {
	type slot struct {
		node int
		free float64
	}
	var slots []slot
	for i, n := range c.Nodes {
		for s := 0; s < n.MapSlots; s++ {
			slots = append(slots, slot{node: i})
		}
	}
	for _, t := range tasks {
		// Choose the slot with the earliest completion time for this task
		// (locality is captured by the remote-read penalty).
		best, bestEnd := -1, 0.0
		for i := range slots {
			end := slots[i].free + c.taskSeconds(t, slots[i].node)
			if best == -1 || end < bestEnd {
				best, bestEnd = i, end
			}
		}
		slots[best].free = bestEnd
	}
	makespan := 0.0
	for _, s := range slots {
		if s.free > makespan {
			makespan = s.free
		}
	}
	return makespan
}

// RoundTime returns the simulated end-to-end seconds of one round:
// fixed overhead + broadcast + map phase + shuffle + reduce.
// (Hadoop overlaps shuffle with the map phase; the additive model keeps
// the same asymptotic shape and is what the paper's trends depend on.)
func (c *Cluster) RoundTime(rc RoundCost) float64 {
	t := c.RoundOverheadSec
	if rc.BroadcastBytes > 0 {
		t += c.netSeconds(rc.BroadcastBytes * int64(len(c.Nodes)-1))
	}
	t += c.MapPhaseTime(rc.MapTasks)
	t += c.netSeconds(rc.ShuffleBytes)
	t += rc.ReduceCPUUnits / (c.CPUOpsPerSec * c.Nodes[c.ReducerNode].CPUFactor)
	return t
}

// JobTime sums the rounds of a multi-round job.
func (c *Cluster) JobTime(rounds []RoundCost) float64 {
	var t float64
	for _, rc := range rounds {
		t += c.RoundTime(rc)
	}
	return t
}

// SlowestNodes returns node indices sorted by ascending CPU speed; useful
// for tests asserting heterogeneity matters.
func (c *Cluster) SlowestNodes() []int {
	idx := make([]int, len(c.Nodes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return c.Nodes[idx[a]].CPUFactor < c.Nodes[idx[b]].CPUFactor
	})
	return idx
}
