package checker

// StorageOptions groups the visited-set storage knobs — how states are
// stored, never which states exist. Every combination computes the same
// verdict; these trade memory for time.
type StorageOptions struct {
	// Visited selects the level engine's exact storage: VisitedExact
	// ("" or "exact", the default) stores full canonical encodings;
	// VisitedCollapse ("collapse") interns per-process and per-channel
	// sub-vectors in side tables and stores each state as a tuple of
	// indices (Spin's -DCOLLAPSE analogue), cutting bytes/state
	// severalfold at the cost of extra hashing. Membership stays exact
	// either way. Ignored by the sequential DFS and by bitstate runs.
	Visited string
	// MemLimit caps the resident bytes of the level engine's visited set
	// (entries plus table overhead, the checker_visited_bytes gauge).
	// When a level barrier finds the set over budget, its entries are
	// spilled to fingerprint-indexed segment files under SpillDir and
	// lookups probe the (mmap-backed) segments before the in-memory
	// tier, so the search completes with the exact same verdict and
	// stats instead of exhausting memory. 0 disables spilling.
	MemLimit int64
	// SpillDir is the parent directory for spill segments (a unique
	// per-search subdirectory is created on first spill and removed when
	// the search ends). Empty means the system temp directory.
	SpillDir string
	// Bitstate replaces the exact visited set with a double-hash
	// bitstate table of 2^BitstateBits bits (Spin's -DBITSTATE
	// analogue). The search becomes probabilistic: violations found are
	// real, but coverage may be partial.
	Bitstate     bool
	BitstateBits uint
}
