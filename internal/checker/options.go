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
	// either way. Ignored by bitstate runs.
	Visited string
	// MemLimit caps the resident bytes of the level engine's visited set
	// (entries plus table overhead, the checker_visited_bytes gauge). A
	// budgeted search writes each BFS level once to its level log (the
	// checkpoint under Durability, else a scratch file under SpillDir).
	// Over budget at a barrier, the states logged since the last spill
	// become a segment file of (fingerprint, log offset) pairs and the
	// in-memory tier starts over; lookups then probe the mmap-backed
	// segments and log, so verdict and stats are exact. A resume indexes
	// the log instead of loading it. The budget covers the visited set
	// only, not the two live levels. After S spills at most ⌊log2 S⌋+1
	// indexes are probed. 0 disables spilling.
	MemLimit int64
	// SpillDir is the parent directory for spill segments and scratch
	// level logs (a per-search subdirectory, created on first use and
	// removed when the search ends). Empty means the system temp dir.
	SpillDir string
	// Bitstate replaces the exact visited set with a double-hash
	// bitstate table of 2^BitstateBits bits (Spin's -DBITSTATE
	// analogue). The search becomes probabilistic: violations found are
	// real, but coverage may be partial.
	Bitstate     bool
	BitstateBits uint
}
