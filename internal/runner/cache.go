package runner

import (
	"container/list"

	"specabsint/internal/core"
	"specabsint/internal/ir"
	"specabsint/internal/layout"
	"specabsint/internal/obs"
	"specabsint/internal/sidechannel"
)

// The pool's cache is two-tiered and content-addressed, which is what makes
// a long-running analysis service (cmd/specserve) cheap under repetitive
// traffic:
//
//   - tier 1 (programs): progKey = SHA-256(source) + every lowering option
//     that shapes the IR → compiled *ir.Program. Shared by jobs that analyze
//     one source under many analysis configurations (a strategy sweep).
//   - tier 2 (reports): reportKey = progKey + the full analysis-options
//     fingerprint + mode → the completed analysis. A resubmission of an
//     identical request is answered without running the fixpoint at all.
//
// Both tiers are bounded LRU: Get refreshes recency, Put evicts from the
// cold end once the tier exceeds its bound. Every tier counts hits, misses
// and evictions, surfaced together in obs.PoolSnapshot so an operator can
// see both tiers from one /metrics scrape.

// Default cache bounds. Programs are the expensive tier to rebuild but cheap
// to hold (one IR per distinct source); reports are tiny (classification
// maps) so the report tier runs deeper.
const (
	DefaultProgramCacheBound = 512
	DefaultReportCacheBound  = 4096
)

// optsKey is the comparable fingerprint of every analysis option that can
// change a job's result or its stats document. Collector identity is
// irrelevant, but whether stats were requested is part of the key: a cached
// entry only carries a stats snapshot when its miss run collected one.
type optsKey struct {
	cache        layout.CacheConfig
	speculative  bool
	depthMiss    int
	depthHit     int
	dynamicDepth bool
	strategy     core.Strategy
	noUncert     bool
	refinedJoin  bool
	stats        bool
}

// fingerprintOptions reduces core.Options to its comparable key.
func fingerprintOptions(o core.Options) optsKey {
	return optsKey{
		cache:        o.Cache,
		speculative:  o.Speculative,
		depthMiss:    o.DepthMiss,
		depthHit:     o.DepthHit,
		dynamicDepth: o.DynamicDepthBounding,
		strategy:     o.Strategy,
		noUncert:     o.DisableUncertainty,
		refinedJoin:  o.RefinedJoin,
		stats:        o.Collector != nil,
	}
}

// reportKey addresses one completed analysis: the compiled program's content
// key plus the analysis configuration it ran under.
type reportKey struct {
	prog progKey
	opts optsKey
	mode Mode
}

// reportEntry is one cached analysis. Entries are immutable once stored;
// concurrent hits share the pointers read-only (analyses never mutate their
// inputs or results after completion).
type reportEntry struct {
	prog     *ir.Program
	analysis *core.Result
	leaks    *sidechannel.Report
	// stats is the miss run's full observability snapshot (compile phases
	// replayed + fixpoint counters); nil when the miss ran uninstrumented.
	stats *obs.Stats
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

// reportGet returns the cached analysis for key, counting the hit or miss.
func (p *Pool) reportGet(key reportKey) (*reportEntry, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.reports.get(key)
	if ok {
		p.reportHits++
	} else {
		p.reportMisses++
	}
	return e, ok
}

// reportPut stores a completed analysis. Only successful results are cached;
// errors (including cancellation) always re-run.
func (p *Pool) reportPut(key reportKey, e *reportEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.reports.put(key, e)
}

// ReportCacheStats returns the report tier's hit, miss and eviction counts.
func (p *Pool) ReportCacheStats() (hits, misses, evictions int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.reportHits, p.reportMisses, p.reports.evictions
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
