package service

import (
	"container/list"
	"sync"

	"atomique/internal/metrics"
)

// outcome is a finished compilation: the metrics record, the pre-marshalled
// result envelope (so repeated requests return byte-identical JSON), and the
// compile error if any. timedOut marks a budget-bounded solver run that
// exhausted its wall-clock budget; such outcomes are returned but never
// cached (the timeout depends on machine load, not on the inputs).
type outcome struct {
	metrics  metrics.Compiled
	json     []byte
	err      error
	timedOut bool
}

// entry is one cache slot. done is closed when the owning computation
// finishes and val becomes readable; until then other requests for the same
// key coalesce onto the entry instead of recomputing. ready is set with val
// under the cache lock, so eviction can tell finished entries from in-flight
// ones whatever the value type.
type entry[K comparable, V any] struct {
	key   K
	done  chan struct{}
	val   V
	ready bool
}

// lruCache is a bounded LRU whose reservation doubles as in-flight
// deduplication: the first requester of a key owns the computation,
// concurrent requesters wait on the same entry. The engine keeps two. The
// result cache is keyed by the hash of (backend name, circuit fingerprint,
// target, compile options); compilation is deterministic per key, so a
// cached outcome is exact, not approximate. The fingerprint memo is keyed by
// circuit pointer, for circuits that are immutable once submitted.
type lruCache[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *entry[K, V]
	items map[K]*list.Element
}

func newLRUCache[K comparable, V any](capacity int) *lruCache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element)}
}

// getOrReserve looks up key. On a hit (finished or in flight) it returns the
// entry and true. On a miss it inserts a pending entry, evicting the least
// recently used finished entry when over capacity, and returns it with
// false; the caller then owns the computation and must call fulfill.
func (c *lruCache[K, V]) getOrReserve(key K) (*entry[K, V], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*entry[K, V]), true
	}
	e := &entry[K, V]{key: key, done: make(chan struct{})}
	c.items[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		// Evict from the back, skipping in-flight entries (their owners
		// still need to fulfill them; waiters hold direct pointers anyway).
		evicted := false
		for el := c.ll.Back(); el != nil; el = el.Prev() {
			if ent := el.Value.(*entry[K, V]); ent.ready {
				c.ll.Remove(el)
				delete(c.items, ent.key)
				evicted = true
				break
			}
		}
		if !evicted {
			break
		}
	}
	return e, false
}

// fulfill publishes the value of a reserved entry and wakes all waiters.
func (c *lruCache[K, V]) fulfill(e *entry[K, V], v V) {
	c.mu.Lock()
	e.val, e.ready = v, true
	c.mu.Unlock()
	close(e.done)
}

// drop removes a reserved entry whose computation did not produce a cacheable
// outcome (e.g. it was cancelled); waiters already holding the entry still
// observe the outcome via fulfill, which must be called first.
func (c *lruCache[K, V]) drop(e *entry[K, V]) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok && el.Value.(*entry[K, V]) == e {
		c.ll.Remove(el)
		delete(c.items, e.key)
	}
}

// memo returns the value cached for key, computing it with fn on a miss;
// concurrent misses on one key wait for the first computation.
func (c *lruCache[K, V]) memo(key K, fn func(K) V) V {
	e, hit := c.getOrReserve(key)
	if !hit {
		c.fulfill(e, fn(key))
	}
	<-e.done
	return e.val
}

// len returns the number of cached entries (including in-flight ones).
func (c *lruCache[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
