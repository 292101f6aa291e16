package server

import (
	"container/list"
	"sync"
)

// cache is a fixed-capacity LRU over solved responses. Values are the exact
// bytes previously written to a client, so a hit replays a byte-identical
// response. Keys are wire.Hash of the canonical (re-marshaled,
// field-order-stable) request encoding, so two JSON bodies that decode to the
// same request share a key regardless of whitespace or key order; the sweep
// engine's canonical-model memoizer uses the same hash.
type cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent
	m   map[string]*list.Element
}

type cacheEntry struct {
	key  string
	body []byte
}

func newCache(capacity int) *cache {
	if capacity <= 0 {
		return nil
	}
	return &cache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// get returns the cached body and whether it was present. A nil cache always
// misses.
func (c *cache) get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// put stores body under key, evicting the least-recently-used entry when
// full. The caller must not mutate body afterwards.
func (c *cache) put(key string, body []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.m, last.Value.(*cacheEntry).key)
	}
}

// len reports the number of cached entries.
func (c *cache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
