package cluster

import (
	"context"
	"fmt"

	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/snapshot"
	"cicero/internal/voice"
)

// This file is the replica-bootstrap seam: it connects the placement
// plan to the snapshot artifacts of internal/snapshot and
// the lazy loading of serve.Registry, so a node joins the cluster by
// mmapping its assigned datasets' snapshots in microseconds instead of
// re-running pre-processing.

// SnapshotLoader returns a serve.Registry loader that bootstraps one
// replica by mapping its snapshot artifact. A non-empty fingerprint
// must match the artifact's build fingerprint — a replica must not
// serve answers built under different parameters than its peers. The loader is the
// lazy half of cluster bootstrap; pair it with NodeDatasets to decide
// which datasets a node registers at all.
func SnapshotLoader(path string, rel *relation.Relation, ex *voice.Extractor, fingerprint string) serve.Loader {
	return func(ctx context.Context) (*serve.Answerer, error) {
		meta, err := snapshot.InfoFile(path)
		if err != nil {
			return nil, err
		}
		if fingerprint != "" && meta.Fingerprint != fingerprint {
			return nil, fmt.Errorf("cluster: snapshot %s built with different parameters (%q, replica wants %q)",
				path, meta.Fingerprint, fingerprint)
		}
		view, err := snapshot.MapFile(path, rel)
		if err != nil {
			return nil, err
		}
		return serve.New(rel, view, ex, serve.Options{}), nil
	}
}
