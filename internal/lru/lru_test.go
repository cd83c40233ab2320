package lru

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// step is one operation of a scripted run against a Cache[int].
type step struct {
	// op is put, get, create (GetOrCreate), remove, removePrefix
	// (RemoveFunc by key prefix) or len.
	op  string
	key string
	// val is the value put, or the value create would store.
	val int
	// want is the value a get or create returns, the count a remove,
	// removePrefix or len reports; -1 on a get means a miss.
	want int
}

const miss = -1

func run(t *testing.T, c *Cache[int], steps []step) {
	t.Helper()
	for i, s := range steps {
		var got int
		switch s.op {
		case "put":
			c.Put(s.key, s.val)
			continue
		case "get":
			v, ok := c.Get(s.key)
			if got = v; !ok {
				got = miss
			}
		case "create":
			got = c.GetOrCreate(s.key, func() int { return s.val })
		case "remove":
			if c.Remove(s.key) {
				got = 1
			}
		case "removePrefix":
			got = c.RemoveFunc(func(k string, _ int) bool { return strings.HasPrefix(k, s.key) })
		case "len":
			got = c.Len()
		default:
			t.Fatalf("step %d: unknown op %q", i, s.op)
		}
		if got != s.want {
			t.Fatalf("step %d: %s %q = %d, want %d", i, s.op, s.key, got, s.want)
		}
	}
	checkRings(t, c)
}

// checkRings verifies every shard's recency ring and map describe the
// same entries, in both directions, within the shard's bound.
func checkRings[V any](t *testing.T, c *Cache[V]) {
	t.Helper()
	for i := range c.shards {
		s := &c.shards[i]
		n := 0
		for e := s.root.next; e != &s.root; e = e.next {
			if s.m[e.key] != e || e.next.prev != e {
				t.Fatalf("shard %d: entry %q is on the ring but not the map's, or mislinked", i, e.key)
			}
			n++
		}
		if n != len(s.m) || n > c.perShard {
			t.Fatalf("shard %d: ring holds %d, map %d, bound %d", i, n, len(s.m), c.perShard)
		}
	}
}

// TestOneShardIsAnExactLRU scripts the behaviour all three users rely
// on: the dialogue table (create), the stale cache (put/get/remove,
// removal by dataset) and, per shard, the answer cache.
func TestOneShardIsAnExactLRU(t *testing.T) {
	cases := []struct {
		name     string
		capacity int
		steps    []step
	}{
		{"eviction order", 2, []step{
			{op: "put", key: "a", val: 1}, {op: "put", key: "b", val: 2}, {op: "put", key: "c", val: 3},
			{op: "get", key: "a", want: miss}, {op: "get", key: "b", want: 2}, {op: "get", key: "c", want: 3},
			{op: "len", want: 2},
		}},
		{"get touches", 2, []step{
			{op: "put", key: "a", val: 1}, {op: "put", key: "b", val: 2},
			{op: "get", key: "a", want: 1}, // b becomes least recently used
			{op: "put", key: "c", val: 3},
			{op: "get", key: "b", want: miss}, {op: "get", key: "a", want: 1}, {op: "get", key: "c", want: 3},
			{op: "len", want: 2},
			{op: "put", key: "c", val: 30}, // a re-put updates, it does not duplicate
			{op: "get", key: "c", want: 30}, {op: "len", want: 2},
		}},
		{"update in place", 2, []step{
			{op: "put", key: "a", val: 1}, {op: "put", key: "b", val: 2},
			{op: "put", key: "a", val: 9}, // replaces and touches: no second entry
			{op: "len", want: 2},
			{op: "put", key: "c", val: 3},
			{op: "get", key: "b", want: miss}, {op: "get", key: "a", want: 9},
			{op: "len", want: 2},
		}},
		{"get or create", 2, []step{
			{op: "create", key: "ds\x00a", val: 1, want: 1}, {op: "create", key: "ds\x00b", val: 2, want: 2},
			{op: "create", key: "ds\x00a", val: 7, want: 1}, // present: the stored value, touched
			{op: "create", key: "ds\x00c", val: 3, want: 3}, // evicts b, not a
			{op: "len", want: 2},
			{op: "create", key: "ds\x00a", val: 8, want: 1},
			{op: "create", key: "ds\x00b", val: 5, want: 5}, // b was evicted: created afresh
			{op: "removePrefix", key: "ds\x00", want: 2},
			{op: "len", want: 0},
		}},
		{"remove", 2, []step{
			{op: "put", key: "a", val: 1}, {op: "put", key: "b", val: 2},
			{op: "remove", key: "a", want: 1}, {op: "remove", key: "a", want: 0},
			{op: "get", key: "a", want: miss}, {op: "len", want: 1},
			{op: "put", key: "c", val: 3}, // the freed slot is reusable: nothing evicted
			{op: "get", key: "b", want: 2}, {op: "get", key: "c", want: 3},
		}},
		{"remove matching", 4, []step{
			{op: "put", key: "ds\x00a", val: 1}, {op: "put", key: "other\x00a", val: 2}, {op: "put", key: "ds\x00b", val: 3},
			{op: "removePrefix", key: "ds\x00", want: 2},
			{op: "removePrefix", key: "ds\x00", want: 0},
			{op: "len", want: 1}, {op: "get", key: "other\x00a", want: 2},
			{op: "put", key: "x", val: 4}, {op: "put", key: "y", val: 5}, {op: "put", key: "z", val: 6},
			{op: "len", want: 4}, {op: "get", key: "other\x00a", want: 2},
		}},
		{"capacity floor", 0, []step{
			{op: "put", key: "a", val: 1}, {op: "put", key: "b", val: 2},
			{op: "get", key: "a", want: miss}, {op: "get", key: "b", want: 2}, {op: "len", want: 1},
		}},
		{"negative capacity", -5, []step{
			{op: "create", key: "a", val: 1, want: 1}, {op: "create", key: "b", val: 2, want: 2},
			{op: "get", key: "a", want: miss}, {op: "len", want: 1},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { run(t, New[int](tc.capacity, 1), tc.steps) })
	}
}

// TestShardsBoundTheCache: with several shards the order is per shard,
// but the bound holds shard by shard (ceil(capacity/shards) each), a
// key just written is always readable, and a non-positive shard count
// means one.
func TestShardsBoundTheCache(t *testing.T) {
	for _, tc := range []struct{ capacity, shards, perShard int }{
		{128, 16, 8}, {100, 16, 7}, {4, 16, 1}, {3, 0, 3},
	} {
		c := New[int](tc.capacity, tc.shards)
		if c.perShard != tc.perShard || len(c.shards) != max(tc.shards, 1) {
			t.Fatalf("New(%d, %d): %d shards of %d, want %d of %d",
				tc.capacity, tc.shards, len(c.shards), c.perShard, max(tc.shards, 1), tc.perShard)
		}
		for i := 0; i < 5000; i++ {
			key := fmt.Sprintf("key-%d", i)
			c.Put(key, i)
			if v, ok := c.Get(key); !ok || v != i {
				t.Fatalf("New(%d, %d): key %q unreadable right after Put", tc.capacity, tc.shards, key)
			}
		}
		checkRings(t, c)
		if want := len(c.shards) * tc.perShard; c.Len() != want {
			t.Fatalf("New(%d, %d): Len = %d after churn, want every shard full (%d)",
				tc.capacity, tc.shards, c.Len(), want)
		}
	}
}

// TestConcurrentUse hammers every method from several goroutines; run
// under -race. Afterwards the rings must still be intact and bounded.
func TestConcurrentUse(t *testing.T) {
	for _, shards := range []int{1, 16} {
		c := New[int](64, shards)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 4000; i++ {
					key := fmt.Sprintf("d%d\x00k%d", i%3, (i*7+g)%200)
					switch i % 6 {
					case 0, 1:
						c.Put(key, i)
					case 2:
						c.Get(key)
					case 3:
						c.GetOrCreate(key, func() int { return i })
					case 4:
						c.Remove(key)
					case 5:
						if i%600 == 5 {
							c.RemoveFunc(func(k string, _ int) bool { return strings.HasPrefix(k, "d1\x00") })
						}
						c.Len()
					}
				}
			}(g)
		}
		wg.Wait()
		checkRings(t, c)
	}
}
