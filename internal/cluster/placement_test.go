package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

func nodeIDs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%d", i)
	}
	return out
}

func mustReplicas(t *testing.T, nodes []string, key string, rf int) []string {
	t.Helper()
	reps, err := Replicas(nodes, key, rf)
	if err != nil {
		t.Fatal(err)
	}
	return reps
}

func TestNewRingValidates(t *testing.T) {
	if _, err := Replicas(nil, "flights", 2); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := Replicas([]string{"a", "a"}, "flights", 2); err == nil {
		t.Fatal("duplicate node IDs accepted")
	}
	if _, err := Replicas([]string{"a", ""}, "flights", 2); err == nil {
		t.Fatal("empty node ID accepted")
	}
	if _, err := Assignments([]string{"a", "a"}, []string{"flights"}, 2); err == nil {
		t.Fatal("Assignments accepted duplicate node IDs")
	}
	if _, err := NodeDatasets([]string{"a", ""}, "a", []string{"flights"}, 2); err == nil {
		t.Fatal("NodeDatasets accepted an empty node ID")
	}
}

func TestRingReplicasDistinctAndClamped(t *testing.T) {
	for _, ds := range []string{"flights", "acs", "taxi", "liquor"} {
		reps := mustReplicas(t, nodeIDs(3), ds, 5)
		if len(reps) != 3 {
			t.Fatalf("dataset %s: %d replicas, want RF clamped to 3 nodes", ds, len(reps))
		}
		seen := map[string]bool{}
		for _, n := range reps {
			if seen[n] {
				t.Fatalf("dataset %s: duplicate replica %s", ds, n)
			}
			seen[n] = true
		}
	}
	// RF <= 0 defaults to 2.
	if got := len(mustReplicas(t, nodeIDs(4), "flights", 0)); got != 2 {
		t.Fatalf("default RF gave %d replicas, want 2", got)
	}
}

func TestRingDeterministicAcrossInstances(t *testing.T) {
	// The router and every cmd/serve node compute placement from the
	// same flag values, each from its own copy of the node list;
	// placement must agree with no coordination.
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("dataset-%d", i)
		if ra, rb := mustReplicas(t, nodeIDs(5), key, 2), mustReplicas(t, nodeIDs(5), key, 2); !reflect.DeepEqual(ra, rb) {
			t.Fatalf("key %s: %v vs %v", key, ra, rb)
		}
	}
}

func TestRingNodeOrderIndependent(t *testing.T) {
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("dataset-%d", i)
		ra := mustReplicas(t, []string{"a", "b", "c"}, key, 2)
		rb := mustReplicas(t, []string{"c", "a", "b"}, key, 2)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("key %s: placement depends on input order: %v vs %v", key, ra, rb)
		}
	}
}

// TestRingOwnsMatchesReplicas: what a node mounts (NodeDatasets) and
// where the router sends (Replicas) are the same decision.
func TestRingOwnsMatchesReplicas(t *testing.T) {
	nodes := nodeIDs(5)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("dataset-%d", i)
		reps := map[string]bool{}
		for _, n := range mustReplicas(t, nodes, key, 3) {
			reps[n] = true
		}
		for _, n := range nodes {
			owned, err := NodeDatasets(nodes, n, []string{key}, 3)
			if err != nil {
				t.Fatal(err)
			}
			if (len(owned) == 1) != reps[n] {
				t.Fatalf("NodeDatasets(%s, %s) = %v disagrees with Replicas", n, key, owned)
			}
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	// 200 keys across 5 nodes should not all pile onto one node. Loose
	// bound: every node owns at least one key.
	counts := map[string]int{}
	for i := 0; i < 200; i++ {
		counts[mustReplicas(t, nodeIDs(5), fmt.Sprintf("dataset-%d", i), 1)[0]]++
	}
	for _, n := range nodeIDs(5) {
		if counts[n] == 0 {
			t.Fatalf("node %s owns no keys out of 200: %v", n, counts)
		}
	}
}

// TestPlacementMovesOnlyWhatItMust is the property the virtual-node
// ring never pinned: a membership change moves the minimum. Going from
// five nodes to four, every surviving replica of every key stays where
// it was, in the same order; read from four to five, the same
// comparison says that adding a node changes a key's replicas only by
// putting the new node among them.
func TestPlacementMovesOnlyWhatItMust(t *testing.T) {
	const gone = "node-2"
	five := nodeIDs(5)
	four := append(append([]string(nil), five[:2]...), five[3:]...)
	touched := 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("dataset-%d", i)
		with, without := mustReplicas(t, five, key, 2), mustReplicas(t, four, key, 2)
		var survivors []string
		for _, n := range with {
			if n != gone {
				survivors = append(survivors, n)
			}
		}
		if !reflect.DeepEqual(without[:len(survivors)], survivors) {
			t.Fatalf("key %s: %v with %s, %v without it — a replica on a surviving node moved", key, with, gone, without)
		}
		if len(survivors) < len(with) {
			touched++
		}
	}
	if touched == 0 || touched == 2000 {
		t.Fatalf("%d of 2000 keys had a replica on %s — the property was not exercised", touched, gone)
	}
}

func TestAssignmentsCoverAllDatasetsRFTimes(t *testing.T) {
	nodes := nodeIDs(4)
	datasets := []string{"flights", "acs", "taxi", "liquor", "weather"}
	asg, err := Assignments(nodes, datasets, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(asg) != len(nodes) {
		t.Fatalf("assignments list %d nodes, want all %d (idle ones with an empty share)", len(asg), len(nodes))
	}
	total := 0
	for n, dss := range asg {
		total += len(dss)
		for _, ds := range dss {
			owns := false
			for _, rep := range mustReplicas(t, nodes, ds, 2) {
				owns = owns || rep == n
			}
			if !owns {
				t.Fatalf("assignment gave %s to %s but Replicas disagrees", ds, n)
			}
		}
	}
	if total != len(datasets)*2 {
		t.Fatalf("total placements %d, want %d (each dataset on RF=2 nodes)", total, len(datasets)*2)
	}
}

func TestNodeDatasetsFiltersByOwnership(t *testing.T) {
	nodes := nodeIDs(3)
	datasets := []string{"flights", "acs", "taxi", "liquor"}
	asg, err := Assignments(nodes, datasets, 2)
	if err != nil {
		t.Fatal(err)
	}
	covered := map[string]int{}
	for _, n := range nodes {
		owned, err := NodeDatasets(nodes, n, datasets, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(owned) != len(asg[n]) {
			t.Fatalf("NodeDatasets gave %s %v, Assignments %v", n, owned, asg[n])
		}
		for _, ds := range owned {
			covered[ds]++
		}
	}
	for _, ds := range datasets {
		if covered[ds] != 2 {
			t.Fatalf("dataset %s mounted on %d nodes, want 2", ds, covered[ds])
		}
	}
}

// TestRunbookExampleLeavesNoNodeIdle pins README's "Cluster operations"
// example: a cmd/serve node that hosts nothing refuses to boot, so the
// documented node and dataset lists must give every node a share. If
// this fails, change the example's dataset list, not the hash —
// changing the hash moves every deployed dataset.
func TestRunbookExampleLeavesNoNodeIdle(t *testing.T) {
	asg, err := Assignments([]string{"n1", "n2", "n3"}, []string{"flights", "stackoverflow"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for n, dss := range asg {
		if len(dss) == 0 {
			t.Fatalf("node %s hosts nothing in the runbook example: %v", n, asg)
		}
	}
	want := map[string][]string{"n1": {"stackoverflow"}, "n2": {"flights"}, "n3": {"flights", "stackoverflow"}}
	if !reflect.DeepEqual(asg, want) {
		t.Fatalf("placement of the runbook example changed: %v, want %v — existing deployments would move", asg, want)
	}
}
