package httpserve

import (
	"sync/atomic"

	"cicero/internal/engine"
	"cicero/internal/lru"
	"cicero/internal/serve"
)

// The answer cache sits in front of the Answerer: every answer is a
// deterministic function of (live store, canonicalized request text),
// so a bounded LRU (internal/lru, sharded to keep the hit path off one
// lock) can serve repeated requests without touching the kernel. Keys
// carry the dataset name, so identical texts against different datasets
// occupy distinct entries. Entries are tagged with the identity of the
// store they were computed against; a publish (SwapData) makes every
// old tag mismatch the live store, so stale answers can never be served
// after it — even when the publish happens behind the server's back,
// directly on the Answerer or the registry. The server's own publish
// path additionally purges the dataset's entries eagerly
// (purgeDataset), freeing their memory without disturbing the cache of
// any other dataset.

// cacheShards is the number of independently locked cache segments.
const cacheShards = 16

// cacheEntry is one cached answer tagged with its dataset and store
// generation.
type cacheEntry struct {
	dataset string
	store   engine.StoreView
	ans     serve.Answer
}

// answerCache is the LRU plus what only the answer cache needs: the
// store-tag check and the hit/miss counters.
type answerCache struct {
	lru    *lru.Cache[cacheEntry]
	hits   atomic.Uint64
	misses atomic.Uint64
}

// get returns the cached answer for key if one exists and was computed
// against the given live store. An entry from an older store generation
// is evicted on sight and reported as a miss.
func (c *answerCache) get(key string, store engine.StoreView) (serve.Answer, bool) {
	ent, ok := c.lru.Get(key)
	if ok && ent.store != store {
		c.lru.Remove(key)
		ok = false
	}
	if !ok {
		c.misses.Add(1)
		return serve.Answer{}, false
	}
	c.hits.Add(1)
	return ent.ans, true
}

// put stores an answer computed against the given dataset and store.
func (c *answerCache) put(key, dataset string, store engine.StoreView, ans serve.Answer) {
	c.lru.Put(key, cacheEntry{dataset: dataset, store: store, ans: ans})
}

// purgeDataset drops exactly one dataset's entries, freeing their
// memory promptly after that dataset's store swap while every other
// dataset keeps its warm cache.
func (c *answerCache) purgeDataset(dataset string) {
	c.lru.RemoveFunc(func(_ string, ent cacheEntry) bool { return ent.dataset == dataset })
}
