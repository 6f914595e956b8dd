package verifyd

import (
	"pnp/internal/api"
	"pnp/internal/checker"
	"pnp/internal/lru"
	"pnp/internal/obs"
)

// ResultCache is a bounded LRU map from content-address keys to property
// verdicts. It is safe for concurrent use by the service's workers.
// Counters (hits, misses, evictions) and the current entry count are
// mirrored into an obs registry when one is attached.
type ResultCache = lru.Cache[CacheKey, api.PropertyVerdict]

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats = lru.Stats

// NewResultCache creates a cache bounded to maxEntries verdicts
// (maxEntries <= 0 selects the default of 1024). A nil registry is
// fine; counters then live only in the cache itself.
func NewResultCache(maxEntries int, reg *obs.Registry) *ResultCache {
	return lru.New[CacheKey, api.PropertyVerdict](maxEntries, lru.Metrics{
		Hits:      reg.Counter("verifyd_cache_hits_total"),
		Misses:    reg.Counter("verifyd_cache_misses_total"),
		Evictions: reg.Counter("verifyd_cache_evictions_total"),
		Entries:   reg.Gauge("verifyd_cache_entries"),
	})
}

// reportCache is a bounded LRU from submission keys to completed job
// reports — the worker-side tier of the cluster result cache. Where
// ResultCache addresses single property verdicts by compiled model, this
// cache addresses whole reports by the wire content of the submission
// (Submission.Key), so a coordinator can ask any node "have you already
// answered exactly this request?" with one GET /v1/cache/{key} and no
// composition work on either side. Reports are shared — callers must
// treat them as immutable.
type reportCache = lru.Cache[CacheKey, *api.Report]

func newReportCache(maxEntries int, reg *obs.Registry) *reportCache {
	return lru.New[CacheKey, *api.Report](maxEntries, lru.Metrics{
		Hits:    reg.Counter("verifyd_report_cache_hits_total"),
		Misses:  reg.Counter("verifyd_report_cache_misses_total"),
		Entries: reg.Gauge("verifyd_report_cache_entries"),
	})
}

// Cacheable reports whether rep may be served for a future identical
// submission: truncated or canceled searches are not verdicts about the
// model and must never be replayed as such — the same rule the property
// cache applies, lifted to the report level.
func Cacheable(rep *api.Report) bool {
	if rep == nil {
		return false
	}
	for _, p := range rep.Properties {
		if p.Truncated || p.Verdict == checker.Canceled.String() {
			return false
		}
	}
	return true
}
