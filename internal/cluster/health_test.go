package cluster

import (
	"context"
	"testing"
	"time"
)

// TestHealthCheckSkipsReplicaRemovedMidProbe: a sweep probes without
// the lock, so RemoveDataset can drop a replica while its probe is in
// flight. The verdict of such a probe has nowhere to go — recording it
// anyway dereferenced a nil entry in a bare goroutine, which kills the
// router process.
func TestHealthCheckSkipsReplicaRemovedMidProbe(t *testing.T) {
	ring, err := NewRing([]string{"a", "b"}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	probing := make(chan struct{}, 2) // one send per acs replica
	release := make(chan struct{})
	probe := func(_ context.Context, _, dataset string) (uint64, error) {
		if dataset == "acs" {
			probing <- struct{}{}
			<-release
		}
		return 5, nil
	}
	h := NewHealthChecker(probe, ring, []string{"flights", "acs"}, time.Hour)

	swept := make(chan struct{})
	go func() {
		h.Check(context.Background())
		close(swept)
	}()
	<-probing
	<-probing
	h.RemoveDataset("acs")
	close(release)
	<-swept

	for _, node := range []string{"a", "b"} {
		if !h.Healthy(node, "flights") || h.Swaps(node, "flights") != 5 {
			t.Errorf("flights on %s: healthy %v, swaps %d — the surviving dataset's verdicts were lost",
				node, h.Healthy(node, "flights"), h.Swaps(node, "flights"))
		}
		if h.Healthy(node, "acs") {
			t.Errorf("acs on %s resurrected by the late probe", node)
		}
	}
	if got := len(h.Snapshot()); got != 2 {
		t.Errorf("snapshot holds %d replicas, want the 2 of flights", got)
	}
}
