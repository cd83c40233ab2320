// Package lru is the one bounded least-recently-used map of the
// request path: the HTTP tier's answer cache and dialogue table and the
// router's stale-answer cache are all a Cache with a different value
// type. Keys are strings; entries live on a typed intrusive list, so an
// insert is one allocation and a hit none. A Cache is split into
// independently locked shards chosen by key hash: one shard is an exact
// LRU, several trade exact global order for less lock contention (each
// shard evicts its own least recently used entry). The package imports
// nothing of Cicero.
package lru

import "sync"

// entry is one key/value pair, linked into its shard's recency ring.
type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// shard is one independently locked LRU segment. root is the ring's
// sentinel: root.next is the most recently used entry, root.prev the
// least.
type shard[V any] struct {
	mu   sync.Mutex
	m    map[string]*entry[V]
	root entry[V]
}

// Cache is a bounded LRU map from string keys to V, safe for concurrent
// use.
type Cache[V any] struct {
	shards   []shard[V]
	perShard int
}

// New builds a cache holding about capacity entries across the given
// number of shards: each shard holds ceil(capacity/shards), and both
// arguments are floored at one.
func New[V any](capacity, shards int) *Cache[V] {
	if shards < 1 {
		shards = 1
	}
	perShard := (capacity + shards - 1) / shards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache[V]{shards: make([]shard[V], shards), perShard: perShard}
	for i := range c.shards {
		s := &c.shards[i]
		// No size hint: the capacity is a ceiling (often set against
		// untrusted key spaces), not an expected population.
		s.m = make(map[string]*entry[V])
		s.root.prev, s.root.next = &s.root, &s.root
	}
	return c
}

// shard picks the key's shard by FNV-1a hash.
func (c *Cache[V]) shard(key string) *shard[V] {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &c.shards[h%uint32(len(c.shards))]
}

// unlink takes e out of its ring.
func (e *entry[V]) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// pushFront links e in as the most recently used entry.
func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev, e.next = &s.root, s.root.next
	e.prev.next, e.next.prev = e, e
}

// touch marks e most recently used.
func (s *shard[V]) touch(e *entry[V]) {
	e.unlink()
	s.pushFront(e)
}

// remove drops e from the ring and the map.
func (s *shard[V]) remove(e *entry[V]) {
	e.unlink()
	delete(s.m, e.key)
}

// insert adds a new key as the most recently used entry, first evicting
// the least recently used one if the shard is full.
func (s *shard[V]) insert(key string, val V, max int) {
	if len(s.m) >= max {
		s.remove(s.root.prev)
	}
	e := &entry[V]{key: key, val: val}
	s.m[key] = e
	s.pushFront(e)
}

// Get returns the value stored under key and marks it most recently
// used.
func (c *Cache[V]) Get(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	s.touch(e)
	return e.val, true
}

// Put stores val under key as the most recently used entry, replacing
// the value in place if the key is present and otherwise evicting the
// shard's least recently used entry when it is full.
func (c *Cache[V]) Put(key string, val V) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		e.val = val
		s.touch(e)
		return
	}
	s.insert(key, val, c.perShard)
}

// GetOrCreate returns the value stored under key, marking it most
// recently used; if the key is absent it stores and returns create()'s
// result, as Put would. create runs under the shard lock, so every
// caller racing on one key gets the same value.
func (c *Cache[V]) GetOrCreate(key string, create func() V) V {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.m[key]; ok {
		s.touch(e)
		return e.val
	}
	val := create()
	s.insert(key, val, c.perShard)
	return val
}

// Remove drops key and reports whether it was present.
func (c *Cache[V]) Remove(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[key]
	if ok {
		s.remove(e)
	}
	return ok
}

// RemoveFunc drops every entry match reports true for and returns how
// many it dropped. match runs under a shard lock and must not call back
// into the cache.
func (c *Cache[V]) RemoveFunc(match func(key string, val V) bool) int {
	removed := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for e := s.root.next; e != &s.root; {
			next := e.next
			if match(e.key, e.val) {
				s.remove(e)
				removed++
			}
			e = next
		}
		s.mu.Unlock()
	}
	return removed
}

// Len counts the live entries across shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
