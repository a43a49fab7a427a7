// Package cluster models the deployment a Musketeer workflow runs on: a set
// of identical nodes with per-node core counts, memory, and disk/network
// bandwidth, plus simulated-time bookkeeping.
//
// The paper evaluates on a 100-node EC2 m1.xlarge cluster and a 7-node local
// cluster; both are expressible as NodeSpecs. Engines consume the cluster to
// decide how many parallel readers/writers/workers a job gets, and the cost
// model converts logical data volumes into simulated seconds using the
// cluster's aggregate rates.
package cluster

import "fmt"

// Seconds is a simulated duration. All makespans in the benchmark harness
// are Seconds, never wall-clock time (except Fig 13, which measures the real
// runtime of the partitioning algorithms).
type Seconds float64

// String renders the duration with fixed precision for bench tables.
func (s Seconds) String() string { return fmt.Sprintf("%.1fs", float64(s)) }

// NodeSpec describes one machine.
type NodeSpec struct {
	Cores    int
	MemGB    float64
	DiskMBps float64 // sequential disk bandwidth per node
	NetMBps  float64 // network bandwidth per node
}

// EC2M1XLarge approximates the m1.xlarge instances used for the paper's
// 100-node experiments (4 vCPU, 15 GB, moderate disk and network).
var EC2M1XLarge = NodeSpec{Cores: 4, MemGB: 15, DiskMBps: 100, NetMBps: 120}

// LocalNode approximates the paper's dedicated seven-machine cluster
// (lower variance, faster local disks, GbE).
var LocalNode = NodeSpec{Cores: 8, MemGB: 16, DiskMBps: 150, NetMBps: 110}

// Cluster is a homogeneous set of nodes.
type Cluster struct {
	Name  string
	Spec  NodeSpec
	Nodes int
}

// New returns a cluster of n nodes with the given spec.
func New(name string, n int, spec NodeSpec) *Cluster {
	if n < 1 {
		n = 1
	}
	return &Cluster{Name: name, Spec: spec, Nodes: n}
}

// EC2 returns an n-node EC2 m1.xlarge cluster.
func EC2(n int) *Cluster { return New(fmt.Sprintf("ec2-%d", n), n, EC2M1XLarge) }

// Local returns the paper's 7-node local cluster (or n nodes of it).
func Local(n int) *Cluster { return New(fmt.Sprintf("local-%d", n), n, LocalNode) }

// TotalCores returns the aggregate core count.
func (c *Cluster) TotalCores() int { return c.Nodes * c.Spec.Cores }

// AggregateDiskMBps returns cluster-wide disk bandwidth when all nodes
// stream in parallel (the HDFS parallel-read case).
func (c *Cluster) AggregateDiskMBps() float64 {
	return float64(c.Nodes) * c.Spec.DiskMBps
}

// AggregateNetMBps returns cluster-wide network bandwidth.
func (c *Cluster) AggregateNetMBps() float64 {
	return float64(c.Nodes) * c.Spec.NetMBps
}

// Restrict returns a view of the cluster limited to at most n nodes,
// which is how single-machine engines (Metis, GraphChi, serial C) and
// capped engines (PowerGraph beyond 16 nodes) see a larger deployment.
func (c *Cluster) Restrict(n int) *Cluster {
	if n >= c.Nodes {
		return c
	}
	return &Cluster{Name: fmt.Sprintf("%s[%d]", c.Name, n), Spec: c.Spec, Nodes: n}
}
