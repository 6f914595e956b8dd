package model

// FNV-1a 64 parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 is FNV-1a 64 over b — the one hash of canonical state
// encodings (Hash64(st.AppendKey(nil))), exported so every package
// hashing encodings (visited sets, checkpoint identity, spill indexes)
// agrees on one implementation. Equal states always hash equally;
// distinct states collide with probability ~2^-64.
func Hash64(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime64
	}
	return h
}

// Hash64Seeds returns the FNV-1a offset basis and prime, for callers
// that derive secondary hashes from the same constants (for example the
// checker's double-hash bitstate tables).
func Hash64Seeds() (offset, prime uint64) {
	return fnvOffset64, fnvPrime64
}

// Hash64Writer is an io.Writer that folds everything written into a
// running Hash64. The zero value is ready to use.
type Hash64Writer struct {
	h       uint64
	started bool
}

func (w *Hash64Writer) Write(p []byte) (int, error) {
	if !w.started {
		w.h = fnvOffset64
		w.started = true
	}
	for _, b := range p {
		w.h = (w.h ^ uint64(b)) * fnvPrime64
	}
	return len(p), nil
}

// Sum64 returns the hash of everything written so far.
func (w *Hash64Writer) Sum64() uint64 {
	if !w.started {
		return fnvOffset64
	}
	return w.h
}
