//go:build !unix

package checker

// scratchUnlinked: an open file cannot be unlinked, so a search's
// scratch files keep their names until they are closed.
const scratchUnlinked = false
