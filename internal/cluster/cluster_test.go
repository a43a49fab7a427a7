package cluster

import "testing"

func TestNewClampsNodes(t *testing.T) {
	c := New("x", 0, LocalNode)
	if c.Nodes != 1 {
		t.Errorf("Nodes = %d, want 1", c.Nodes)
	}
}

func TestAggregates(t *testing.T) {
	c := EC2(10)
	if c.TotalCores() != 40 {
		t.Errorf("TotalCores = %d", c.TotalCores())
	}
	if got := c.AggregateDiskMBps(); got != 1000 {
		t.Errorf("AggregateDiskMBps = %v", got)
	}
	if got := c.AggregateNetMBps(); got != 1200 {
		t.Errorf("AggregateNetMBps = %v", got)
	}
}

func TestRestrict(t *testing.T) {
	c := EC2(100)
	r := c.Restrict(16)
	if r.Nodes != 16 {
		t.Errorf("Restrict(16).Nodes = %d", r.Nodes)
	}
	if r.Spec != c.Spec {
		t.Error("Restrict changed spec")
	}
	if c.Restrict(200) != c {
		t.Error("Restrict above size should return same cluster")
	}
}

func TestSecondsString(t *testing.T) {
	if Seconds(1.25).String() != "1.2s" && Seconds(1.25).String() != "1.3s" {
		t.Errorf("String = %q", Seconds(1.25).String())
	}
}
