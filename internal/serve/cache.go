package serve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"powerrchol"
	"powerrchol/internal/session"
)

// Prepared is one cached unit of serving state: the prepared solver and
// the micro-batcher (session.Batcher) that dispatches onto it. The
// solver is immutable and safe for concurrent use; the batcher
// serializes batch windows against it.
type Prepared struct {
	Solver *powerrchol.Solver
	// Batch is attached by the server right after a successful build
	// (before the cache publishes the entry) and stopped on eviction.
	Batch *session.Batcher
	bytes int64
}

// MemoryBytes reports the eviction weight of this entry.
func (p *Prepared) MemoryBytes() int64 { return p.bytes }

// Cache is the fingerprint-keyed prepared-solver LRU, bounded by a byte
// budget measured with Solver.MemoryBytes. Builds are single-flight: the
// first request for a key builds while later ones wait on the entry,
// so a thundering herd on a cold grid costs one factorization, not N.
//
// Eviction drops the cache's reference and stops the entry's batcher;
// requests already holding the *Prepared keep using it safely (the
// solver is immutable — memory is reclaimed when the last request
// drops it). The newest entry is always admitted even when it alone
// exceeds the budget: a cache that cannot hold the working solver would
// rebuild it per request, which is strictly worse than being over
// budget.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[uint64]*cacheEntry
	lru     *list.List // front = most recently used; values are *cacheEntry

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64

	// onEvict runs outside the cache lock for every evicted or
	// invalidated entry (the batcher stop).
	onEvict func(*Prepared)
}

type cacheEntry struct {
	key   uint64
	elem  *list.Element
	ready chan struct{} // closed when val/err are set
	val   *Prepared
	err   error
}

// NewCache builds a cache with the given byte budget. onEvict may be
// nil.
func NewCache(budget int64, onEvict func(*Prepared)) *Cache {
	return &Cache{
		budget:  budget,
		entries: make(map[uint64]*cacheEntry),
		lru:     list.New(),
		onEvict: onEvict,
	}
}

// GetOrBuild returns the entry for key, building it with build on a
// miss. Concurrent callers for the same key share one build. The build
// runs on the calling goroutine; its context is the caller's — a
// cancelled build fails all current waiters but leaves the cache clean,
// so the next request simply rebuilds. The returned bool reports a hit.
func (c *Cache) GetOrBuild(ctx context.Context, key uint64, build func(context.Context) (*Prepared, int64, error)) (*Prepared, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if e.err != nil {
			// The build this entry represented failed; the builder
			// already removed it. Report the failure to waiters.
			return nil, false, e.err
		}
		c.hits.Add(1)
		return e.val, true, nil
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()

	c.misses.Add(1)
	val, bytes, err := build(ctx)
	if err != nil {
		e.err = err
		close(e.ready)
		c.mu.Lock()
		c.removeLocked(e)
		c.mu.Unlock()
		return nil, false, err
	}
	val.bytes = bytes
	c.mu.Lock()
	e.val = val // under mu: Invalidate reads it to match the entry
	close(e.ready)
	c.used += bytes
	evicted := c.shedLocked(c.budget, e)
	c.mu.Unlock()
	c.runEvictions(evicted)
	return val, false, nil
}

// Invalidate removes the entry for key if it still holds p — the
// poisoned-solver path: a solve-time numerical failure drops the entry
// so the next request rebuilds, without racing a concurrent rebuild
// that already replaced it.
func (c *Cache) Invalidate(key uint64, p *Prepared) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok || e.val != p {
		c.mu.Unlock()
		return
	}
	c.removeLocked(e)
	c.mu.Unlock()
	c.evictions.Add(1)
	c.runEvictions([]*Prepared{p})
}

// ShedTo evicts least-recently-used entries until the cache holds at
// most target bytes — the degradation ladder's memory rung.
func (c *Cache) ShedTo(target int64) {
	c.mu.Lock()
	evicted := c.shedLocked(target, nil)
	c.mu.Unlock()
	c.runEvictions(evicted)
}

// Clear evicts everything (shutdown).
func (c *Cache) Clear() { c.ShedTo(-1) }

// shedLocked evicts LRU entries until used ≤ target, never evicting
// keep (the entry just inserted) or entries still building. Returns the
// evicted values for the out-of-lock callbacks.
func (c *Cache) shedLocked(target int64, keep *cacheEntry) []*Prepared {
	var out []*Prepared
	// Bound the walk by the entry count: building entries are skipped by
	// rotating them to the front, and without the bound a list of only
	// building entries would rotate forever.
	for attempts := c.lru.Len(); c.used > target && c.lru.Len() > 0 && attempts > 0; attempts-- {
		elem := c.lru.Back()
		e := elem.Value.(*cacheEntry)
		if e == keep {
			break
		}
		select {
		case <-e.ready:
		default:
			// Still building: it carries no accounted bytes yet and a
			// waiter holds it. Skip — it is also necessarily the most
			// recent insert on its LRU path.
			c.lru.MoveToFront(elem)
			continue
		}
		c.removeLocked(e)
		c.evictions.Add(1)
		if e.val != nil {
			out = append(out, e.val)
		}
	}
	return out
}

func (c *Cache) removeLocked(e *cacheEntry) {
	if _, ok := c.entries[e.key]; !ok {
		return
	}
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	if e.val != nil {
		c.used -= e.val.bytes
	}
}

func (c *Cache) runEvictions(evicted []*Prepared) {
	if c.onEvict == nil {
		return
	}
	for _, p := range evicted {
		c.onEvict(p)
	}
}

// UsedBytes reports the accounted bytes of ready entries.
func (c *Cache) UsedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// Len reports the entry count (building entries included).
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Budget reports the configured byte budget.
func (c *Cache) Budget() int64 { return c.budget }

// Hits, Misses and Evictions report the lifetime counters.
func (c *Cache) Hits() int64      { return c.hits.Load() }
func (c *Cache) Misses() int64    { return c.misses.Load() }
func (c *Cache) Evictions() int64 { return c.evictions.Load() }
