package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"
)

// Replicas is the cluster's one placement decision: the nodes that host
// key, in preference order. It is rendezvous (highest-random-weight)
// hashing — every node is scored by one hash of (node, key), the
// highest rf scores win, ties go to the smaller ID — so it is a pure
// function of its arguments: the router and every cmd/serve node call
// it with the same flag values and agree with no coordination, in any
// node-list order, and removing a node moves only the keys that node
// held. rf is clamped to [1, len(nodes)]; a non-positive rf means 2,
// the minimum for fault tolerance.
func Replicas(nodes []string, key string, rf int) ([]string, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: placement needs at least one node")
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node ID")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", n)
		}
		seen[n] = true
	}
	if rf <= 0 {
		rf = 2
	}
	if rf > len(nodes) {
		rf = len(nodes)
	}
	type scored struct {
		id    string
		score uint64
	}
	ranked := make([]scored, len(nodes))
	for i, n := range nodes {
		ranked[i] = scored{n, score(n, key)}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].id < ranked[j].id
	})
	out := make([]string, rf)
	for i := range out {
		out[i] = ranked[i].id
	}
	return out, nil
}

// score hashes node‖0‖key. FNV-1a's high bits barely disperse for
// short, similar inputs ("n1", "n2", ...), which would hand every key
// to the same node; a murmur3-style finalizer fixes the avalanche.
func score(node, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, node)
	h.Write([]byte{0})
	io.WriteString(h, key)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Assignments maps every node to the datasets it hosts, in the order
// given — the table cmd/router prints at boot.
func Assignments(nodes, datasets []string, rf int) (map[string][]string, error) {
	out := make(map[string][]string, len(nodes))
	for _, n := range nodes {
		out[n] = nil
	}
	for _, ds := range datasets {
		reps, err := Replicas(nodes, ds, rf)
		if err != nil {
			return nil, err
		}
		for _, n := range reps {
			out[n] = append(out[n], ds)
		}
	}
	return out, nil
}

// NodeDatasets is one node's row of Assignments — the mount list a
// cluster-mode cmd/serve uses instead of mounting everything.
func NodeDatasets(nodes []string, node string, datasets []string, rf int) ([]string, error) {
	hosts, err := Assignments(nodes, datasets, rf)
	return hosts[node], err
}
