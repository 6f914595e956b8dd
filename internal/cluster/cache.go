package cluster

import (
	"pnp/internal/api"
	"pnp/internal/lru"
	"pnp/internal/obs"
	"pnp/internal/verifyd"
)

// reportLRU is the coordinator-side tier of the cluster result cache: a
// bounded LRU from submission keys to completed reports, annotated with
// the node that computed each. A hit answers a repeat submission
// without touching any worker; a miss falls through to a cache peek on
// the key's ring owner (the worker-side tier) and only then to real
// work.
type reportLRU = lru.Cache[verifyd.CacheKey, cachedReport]

// cachedReport is one coordinator cache entry. The report is shared —
// callers must treat it as immutable.
type cachedReport struct {
	rep  *api.Report
	node string // node that computed the report
}

func newReportLRU(maxEntries int, reg *obs.Registry) *reportLRU {
	return lru.New[verifyd.CacheKey, cachedReport](maxEntries, lru.Metrics{
		Entries: reg.Gauge("cluster_cache_entries"),
	})
}
