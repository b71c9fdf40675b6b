package runner

import "container/list"

// The pool's cache is two-tiered and content-addressed, which is what makes
// a long-running analysis service (cmd/specserve) cheap under repetitive
// traffic:
//
//   - tier 1 (programs): progKey = SHA-256(source) + every lowering option
//     that shapes the IR → compiled *ir.Program. Shared by jobs that analyze
//     one source under many analysis configurations (a strategy sweep).
//   - tier 2 (reports): reportKey = progKey + the job's Key → the job's
//     finished Value. The caller chooses what the Key holds (the root
//     package's Service uses the analysis options and whether stats were
//     requested) and what the Value is (the Service's finished Report, with
//     its stats), so a resubmission of an identical request is answered
//     without compiling, analyzing or building anything.
//
// Both tiers are bounded LRU: Get refreshes recency, Put evicts from the
// cold end once the tier exceeds its bound. Every tier counts hits, misses
// and evictions, surfaced together in obs.PoolSnapshot so an operator can
// see both tiers from one /metrics scrape.

// Default cache bounds. Programs are the expensive tier to rebuild but cheap
// to hold (one IR per distinct source); reports are tiny (a finished report
// keeps one line, symbol and verdict per access, not the analysis's
// per-block states) so the report tier runs deeper.
const (
	DefaultProgramCacheBound = 512
	DefaultReportCacheBound  = 4096
)

// reportKey addresses one finished job: the compiled program's content key
// plus the job's Key, which fixes what its analysis computes.
type reportKey struct {
	prog progKey
	key  any
}

// lruCache is a minimal bounded LRU keyed by comparable K. Not safe for
// concurrent use — the pool guards each tier with its mutex.
type lruCache[K comparable, V any] struct {
	bound     int // <= 0: unbounded
	items     map[K]*list.Element
	order     *list.List // front = most recent
	evictions int64
}

type lruSlot[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](bound int) *lruCache[K, V] {
	return &lruCache[K, V]{bound: bound, items: map[K]*list.Element{}, order: list.New()}
}

func (c *lruCache[K, V]) get(k K) (V, bool) {
	if el, ok := c.items[k]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruSlot[K, V]).val, true
	}
	var zero V
	return zero, false
}

func (c *lruCache[K, V]) put(k K, v V) {
	if el, ok := c.items[k]; ok {
		// Concurrent misses can race to fill one key; last write wins and
		// no eviction is needed.
		el.Value.(*lruSlot[K, V]).val = v
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&lruSlot[K, V]{key: k, val: v})
	c.trim()
}

// trim evicts from the cold end until the cache fits its bound.
func (c *lruCache[K, V]) trim() {
	for c.bound > 0 && c.order.Len() > c.bound {
		cold := c.order.Back()
		c.order.Remove(cold)
		delete(c.items, cold.Value.(*lruSlot[K, V]).key)
		c.evictions++
	}
}

func (c *lruCache[K, V]) len() int { return c.order.Len() }

// reportGet returns the cached value for key, counting a hit, and a miss
// when count is set.
func (p *Pool) reportGet(key reportKey, count bool) (any, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	v, ok := p.reports.get(key)
	switch {
	case ok:
		p.reportHits++
	case count:
		p.reportMisses++
	}
	return v, ok
}

// reportPut stores a finished value. Entries are immutable once stored:
// concurrent hits share the value read-only. Only successful results are
// cached; errors (including cancellation) always re-run.
func (p *Pool) reportPut(key reportKey, v any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reports.put(key, v)
}

// SetCacheBounds bounds the two cache tiers (entries, not bytes); <= 0 makes
// a tier unbounded. Shrinking a bound evicts immediately from the cold end.
// Call before serving traffic; it is safe, but not atomic, afterwards.
func (p *Pool) SetCacheBounds(programs, reports int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.progs.bound = programs
	p.progs.trim()
	p.reports.bound = reports
	p.reports.trim()
}
