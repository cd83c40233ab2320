package httpserve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"cicero/internal/engine"
	"cicero/internal/serve"
)

// The answer cache sits in front of the Answerer: every answer is a
// deterministic function of (live store, canonicalized request text),
// so one bounded LRU per shard can serve repeated requests without
// touching the kernel. Keys carry the dataset name, so identical
// texts against different datasets occupy distinct entries. Entries
// are tagged with the identity of the store they were computed
// against; a publish (SwapData) makes every old tag mismatch the live
// store, so stale answers can never be served after it — even when the
// publish happens behind the server's back, directly on the Answerer
// or the registry. The server's own publish path additionally purges
// the dataset's entries eagerly (purgeDataset), freeing their memory
// without disturbing the cache of any other dataset.

// cacheEntry is one cached answer tagged with its dataset and store
// generation.
type cacheEntry struct {
	key     string
	dataset string
	store   engine.StoreView
	ans     serve.Answer
}

// cacheShard is an independently locked LRU segment.
type cacheShard struct {
	mu  sync.Mutex
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
	cap int
}

// answerCache is a sharded LRU keyed by canonicalized request text.
type answerCache struct {
	shards []cacheShard
	hits   atomic.Uint64
	misses atomic.Uint64
}

// newAnswerCache builds a cache holding roughly total entries across
// the given number of shards (both floored to sane minimums).
func newAnswerCache(total, shards int) *answerCache {
	if shards < 1 {
		shards = 1
	}
	perShard := (total + shards - 1) / shards
	if perShard < 1 {
		perShard = 1
	}
	c := &answerCache{shards: make([]cacheShard, shards)}
	for i := range c.shards {
		c.shards[i] = cacheShard{
			ll:  list.New(),
			m:   make(map[string]*list.Element, perShard),
			cap: perShard,
		}
	}
	return c
}

// fnv32a hashes the key for shard selection.
func fnv32a(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

func (c *answerCache) shard(key string) *cacheShard {
	return &c.shards[fnv32a(key)%uint32(len(c.shards))]
}

// get returns the cached answer for key if one exists and was computed
// against the given live store. An entry from an older store generation
// is evicted on sight and reported as a miss.
func (c *answerCache) get(key string, store engine.StoreView) (serve.Answer, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		c.misses.Add(1)
		return serve.Answer{}, false
	}
	ent := el.Value.(*cacheEntry)
	if ent.store != store {
		s.ll.Remove(el)
		delete(s.m, key)
		c.misses.Add(1)
		return serve.Answer{}, false
	}
	s.ll.MoveToFront(el)
	c.hits.Add(1)
	return ent.ans, true
}

// put stores an answer computed against the given dataset and store,
// evicting the least recently used entry when the shard is full.
func (c *answerCache) put(key, dataset string, store engine.StoreView, ans serve.Answer) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.dataset, ent.store, ent.ans = dataset, store, ans
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.cap {
		oldest := s.ll.Back()
		if oldest != nil {
			s.ll.Remove(oldest)
			delete(s.m, oldest.Value.(*cacheEntry).key)
		}
	}
	s.m[key] = s.ll.PushFront(&cacheEntry{key: key, dataset: dataset, store: store, ans: ans})
}

// purge drops every entry across all datasets.
func (c *answerCache) purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.ll.Init()
		clear(s.m)
		s.mu.Unlock()
	}
}

// purgeDataset drops exactly one dataset's entries, freeing their
// memory promptly after that dataset's store swap while every other
// dataset keeps its warm cache.
func (c *answerCache) purgeDataset(dataset string) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; {
			next := el.Next()
			if ent := el.Value.(*cacheEntry); ent.dataset == dataset {
				s.ll.Remove(el)
				delete(s.m, ent.key)
			}
			el = next
		}
		s.mu.Unlock()
	}
}

// len counts live entries across shards.
func (c *answerCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}
