package service

import (
	"container/list"

	"gcacc"
)

// cacheKey content-addresses a request: the graph's fingerprint (see
// graph.EdgeHash) plus the engine that computes on it. Two requests
// with the same key are guaranteed the same labels (every engine is
// deterministic), so results are interchangeable.
type cacheKey struct {
	fp     [32]byte
	engine gcacc.Engine
}

// lruCache is a fixed-capacity least-recently-used result cache. It is
// not self-locking: every access happens under Service.mu, which also
// serialises the lookup→in-flight-join→fill window (the invariant behind
// "exactly one cache fill per key").
type lruCache struct {
	cap   int
	ll    *list.List // front = most recently used
	items map[cacheKey]*list.Element
}

type cacheEntry struct {
	key cacheKey
	res *Result
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[cacheKey]*list.Element)}
}

func (c *lruCache) len() int {
	if c == nil {
		return 0
	}
	return c.ll.Len()
}

// get returns the cached result for key and marks it most recently used.
func (c *lruCache) get(key cacheKey) (*Result, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// add inserts res under key, evicting the least recently used entries
// above capacity, and reports how many were evicted.
func (c *lruCache) add(key cacheKey, res *Result) (evicted int) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return 0
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheEntry).key)
		evicted++
	}
	return evicted
}
