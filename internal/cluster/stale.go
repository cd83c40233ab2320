package cluster

import "time"

// staleEntry is one remembered good answer: the raw response body of
// the last successful forward for a (dataset, canonical text) key,
// tagged with the replica that answered and the generation (store swap
// count) its store was at. The router serves it — explicitly marked
// stale — when every replica of the dataset is down, trading freshness
// for availability instead of failing. The generation tag exists so the
// entry can be invalidated when the world moves on without the key
// being written again: a generation that no longer matches the
// replica's current store (a delta published after capture, or a node
// rebooted onto a fresh base) rejects the entry at read time.
//
// Entries live in Router.stale, an exact (one-shard) LRU from
// internal/lru: the cache sits behind a network hop, and lookups happen
// only on the (rare) total-outage path plus one put per successful
// single-text answer, so one lock is enough.
type staleEntry struct {
	body       []byte
	from       *replica
	generation uint64
	storedAt   time.Time
}
