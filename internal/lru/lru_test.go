package lru

import (
	"testing"

	"pnp/internal/obs"
)

func TestEvictionOrderRefreshAndPeek(t *testing.T) {
	reg := obs.NewRegistry()
	m := Metrics{
		Hits: reg.Counter("hits"), Misses: reg.Counter("misses"),
		Evictions: reg.Counter("evictions"), Entries: reg.Gauge("entries"),
	}
	c := New[string, int](2, m)
	c.Put("a", 1)
	c.Put("b", 2)

	// Peek reads without accounting and without refreshing recency: "a"
	// stays least recently used and is the one evicted.
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	if _, ok := c.Peek("zz"); ok {
		t.Fatal("Peek hit a missing key")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek touched the counters: %+v", st)
	}
	c.Put("c", 3)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("a should have been evicted: Peek must not refresh recency")
	}

	// Get refreshes recency: after Get(b), c is the oldest.
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = %d, %v", v, ok)
	}
	c.Put("d", 4)
	if _, ok := c.Get("c"); ok {
		t.Fatal("c should have been evicted after b was refreshed by Get")
	}

	// Put on an existing key refreshes value and recency without
	// evicting: after Put(b), d is the oldest.
	c.Put("b", 20)
	if c.Len() != 2 {
		t.Fatalf("Len = %d after refreshing Put, want 2", c.Len())
	}
	c.Put("e", 5)
	if _, ok := c.Peek("d"); ok {
		t.Fatal("d should have been evicted after b was refreshed by Put")
	}
	if v, _ := c.Peek("b"); v != 20 {
		t.Fatalf("refreshing Put lost the value: %d", v)
	}

	want := Stats{Entries: 2, Hits: 1, Misses: 1, Evictions: 3}
	if st := c.Stats(); st != want {
		t.Fatalf("Stats = %+v, want %+v", st, want)
	}
	if m.Hits.Value() != 1 || m.Misses.Value() != 1 || m.Evictions.Value() != 3 || m.Entries.Value() != 2 {
		t.Fatalf("metrics out of step: hits=%d misses=%d evictions=%d entries=%d",
			m.Hits.Value(), m.Misses.Value(), m.Evictions.Value(), m.Entries.Value())
	}
}

func TestDefaultBoundAndNilMetrics(t *testing.T) {
	c := New[int, int](0, Metrics{})
	for i := 0; i < defaultMax+10; i++ {
		c.Put(i, i)
	}
	if c.Len() != defaultMax {
		t.Fatalf("Len = %d, want the default bound %d", c.Len(), defaultMax)
	}
}
