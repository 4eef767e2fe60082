package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"caladrius/internal/core"
	"caladrius/internal/telemetry"
)

// Series the calibration cache registers.
const (
	// MetricCalHits counts lookups served from the cache.
	MetricCalHits = "caladrius_calcache_hits_total"
	// MetricCalMisses counts lookups with no usable entry.
	MetricCalMisses = "caladrius_calcache_misses_total"
	// MetricCalStale counts lookups that found an entry but rejected it
	// (plan version or window superseded, or TTL expired).
	MetricCalStale = "caladrius_calcache_stale_total"
	// MetricCalInvalidations counts explicit evictions (tracker update,
	// packing-plan change, forced recalibration).
	MetricCalInvalidations = "caladrius_calcache_invalidations_total"
	// MetricCalEntries gauges resident entries.
	MetricCalEntries = "caladrius_calcache_entries"
)

// calEntry is one cached calibrated model. An entry is usable only for
// the exact (plan version, provider window) it was built from.
type calEntry struct {
	planVersion int
	window      time.Duration
	model       *core.TopologyModel
	storedAt    time.Time
}

// CalCacheOptions configures a CalCache.
type CalCacheOptions struct {
	// TTL bounds entry age; 0 means entries never expire by time (they
	// are still evicted by invalidation and superseded by version).
	TTL time.Duration
	// Now is the wall clock (tests). Default time.Now.
	Now func() time.Time
	// Registry optionally receives the caladrius_calcache_* series.
	Registry *telemetry.Registry
}

// CalCache caches calibrated topology models keyed by topology name,
// with entries validated against (packing-plan version, provider
// window) and an optional TTL. The hit path performs zero heap
// allocations — an RLock, one map probe and atomic counters — which is
// what makes warm predicts skip the fetch→calibrate stages for free.
type CalCache struct {
	ttl time.Duration
	now func() time.Time

	mu      sync.RWMutex
	entries map[string]calEntry

	hits          atomic.Uint64
	misses        atomic.Uint64
	stale         atomic.Uint64
	invalidations atomic.Uint64

	hitsC    *telemetry.Counter
	missesC  *telemetry.Counter
	staleC   *telemetry.Counter
	invalidC *telemetry.Counter
	entriesG *telemetry.Gauge
}

// NewCalCache builds an empty cache.
func NewCalCache(opts CalCacheOptions) *CalCache {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	c := &CalCache{
		ttl:     opts.TTL,
		now:     opts.Now,
		entries: map[string]calEntry{},
	}
	if opts.Registry != nil {
		r := opts.Registry
		r.SetHelp(MetricCalHits, "Calibration-cache lookups served from cache.")
		r.SetHelp(MetricCalMisses, "Calibration-cache lookups with no usable entry.")
		r.SetHelp(MetricCalStale, "Calibration-cache lookups rejected as superseded or expired.")
		r.SetHelp(MetricCalInvalidations, "Calibration-cache entries explicitly evicted.")
		r.SetHelp(MetricCalEntries, "Calibrated topology models resident in the cache.")
		c.hitsC = r.Counter(MetricCalHits, nil)
		c.missesC = r.Counter(MetricCalMisses, nil)
		c.staleC = r.Counter(MetricCalStale, nil)
		c.invalidC = r.Counter(MetricCalInvalidations, nil)
		c.entriesG = r.Gauge(MetricCalEntries, nil)
	}
	return c
}

// Lookup returns the cached model for topology iff it was calibrated
// against exactly planVersion and window and (with a TTL configured)
// has not expired, counting the outcome as a hit, miss or stale
// lookup. The hit path is 0 allocs/op.
func (c *CalCache) Lookup(topology string, planVersion int, window time.Duration) (*core.TopologyModel, bool) {
	m, ok, found := c.peek(topology, planVersion, window)
	switch {
	case ok:
		c.hits.Add(1)
		if c.hitsC != nil {
			c.hitsC.Inc()
		}
	case found:
		c.stale.Add(1)
		if c.staleC != nil {
			c.staleC.Inc()
		}
	default:
		c.misses.Add(1)
		if c.missesC != nil {
			c.missesC.Inc()
		}
	}
	return m, ok
}

// Peek is Lookup without counting: the re-check a caller makes after
// winning a calibration flight, for a request whose Lookup already
// counted its miss.
func (c *CalCache) Peek(topology string, planVersion int, window time.Duration) (*core.TopologyModel, bool) {
	m, ok, _ := c.peek(topology, planVersion, window)
	return m, ok
}

// peek returns the usable entry's model; found reports whether any
// entry, usable or not, was present.
func (c *CalCache) peek(topology string, planVersion int, window time.Duration) (m *core.TopologyModel, ok, found bool) {
	c.mu.RLock()
	e, found := c.entries[topology]
	c.mu.RUnlock()
	if !found || e.planVersion != planVersion || e.window != window ||
		(c.ttl > 0 && c.now().Sub(e.storedAt) >= c.ttl) {
		return nil, false, found
	}
	return e.model, true, true
}

// Store caches model for topology. A later Store for the same topology
// replaces the entry (newest calibration wins).
func (c *CalCache) Store(topology string, planVersion int, window time.Duration, model *core.TopologyModel) {
	if model == nil {
		return
	}
	c.mu.Lock()
	c.entries[topology] = calEntry{
		planVersion: planVersion,
		window:      window,
		model:       model,
		storedAt:    c.now(),
	}
	n := len(c.entries)
	c.mu.Unlock()
	if c.entriesG != nil {
		c.entriesG.Set(float64(n))
	}
}

// Invalidate evicts exactly the named topology's entry, reporting
// whether one was present. Tracker updates and packing-plan changes
// call this so the next predict recalibrates against fresh state.
func (c *CalCache) Invalidate(topology string) bool {
	c.mu.Lock()
	_, ok := c.entries[topology]
	if ok {
		delete(c.entries, topology)
	}
	n := len(c.entries)
	c.mu.Unlock()
	if !ok {
		return false
	}
	c.invalidations.Add(1)
	if c.invalidC != nil {
		c.invalidC.Inc()
	}
	if c.entriesG != nil {
		c.entriesG.Set(float64(n))
	}
	return true
}

// Len reports resident entries.
func (c *CalCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// CalCacheStats is a point-in-time cache snapshot for the API surface.
type CalCacheStats struct {
	Entries       int     `json:"entries"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Stale         uint64  `json:"stale"`
	Invalidations uint64  `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`
}

// Stats snapshots the cache. HitRate is hits over all lookups (0 with
// no lookups yet).
func (c *CalCache) Stats() CalCacheStats {
	st := CalCacheStats{
		Entries:       c.Len(),
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Stale:         c.stale.Load(),
		Invalidations: c.invalidations.Load(),
	}
	if total := st.Hits + st.Misses + st.Stale; total > 0 {
		st.HitRate = float64(st.Hits) / float64(total)
	}
	return st
}
