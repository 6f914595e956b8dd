package swp

import (
	"testing"

	"pnp/internal/checker"
)

// pinCounts checks a safety search's stored / matched / transitions /
// depth against the literals recorded for it. They hold at any worker
// count of the level engine; the tests run it at one.
func pinCounts(t *testing.T, r *checker.Result, stored, matched, transitions, depth int) {
	t.Helper()
	if s := r.Stats; s.StatesStored != stored || s.StatesMatched != matched ||
		s.Transitions != transitions || s.MaxDepth != depth {
		t.Errorf("safety stats %d / %d / %d / %d, want %d / %d / %d / %d",
			s.StatesStored, s.StatesMatched, s.Transitions, s.MaxDepth, stored, matched, transitions, depth)
	}
}

func TestSlidingWindowSmall(t *testing.T) {
	res, err := Verify(Config{Frames: 2, Window: 2}, nil, checker.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safety.OK || !res.Delivery.OK {
		t.Fatalf("safety=%s delivery=%s", res.Safety.Summary(), res.Delivery.Summary())
	}
	pinCounts(t, res.Safety, 258857, 136790, 395646, 276)
}

func TestSlidingWindowDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive frames=3 window=2 verification takes ~10 s")
	}
	res, err := Verify(Config{}, nil, checker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safety.OK {
		t.Fatalf("safety failed: %s\n%s", res.Safety.Summary(), res.Safety.Trace)
	}
	if !res.Delivery.OK {
		t.Fatalf("delivery goal failed: %s\n%s", res.Delivery.Summary(), res.Delivery.Trace)
	}
	t.Logf("frames=3 window=2: %d states", res.Safety.Stats.StatesStored)
}

func TestSlidingWindowWindowOne(t *testing.T) {
	// Window 1 degenerates to stop-and-wait (ABP without the bit).
	res, err := Verify(Config{Frames: 2, Window: 1}, nil, checker.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safety.OK || !res.Delivery.OK {
		t.Fatalf("safety=%s delivery=%s", res.Safety.Summary(), res.Delivery.Summary())
	}
	pinCounts(t, res.Safety, 39740, 21389, 61128, 187)
}

func TestSlidingWindowWiderWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("larger window enlarges the state space")
	}
	// Window 3 over 4 frames exceeds the exhaustive budget; run a bounded
	// safety sweep (no violation within the limit).
	res, err := Verify(Config{Frames: 4, Window: 3}, nil, checker.Options{
		MaxStates: 400000, PartialOrder: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Safety.OK && res.Safety.Kind != checker.SearchLimit {
		t.Fatalf("bounded sweep found: %s\n%s", res.Safety.Summary(), res.Safety.Trace)
	}
	t.Logf("bounded sweep: %d states without violation", res.Safety.Stats.StatesStored)
}

func TestSlidingWindowPORAgrees(t *testing.T) {
	full, err := Verify(Config{Frames: 2, Window: 2}, nil, checker.Options{})
	if err != nil {
		t.Fatal(err)
	}
	por, err := Verify(Config{Frames: 2, Window: 2}, nil, checker.Options{PartialOrder: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Safety.OK != por.Safety.OK {
		t.Fatalf("POR changed the verdict: %v vs %v", full.Safety.OK, por.Safety.OK)
	}
	if por.Safety.Stats.StatesStored > full.Safety.Stats.StatesStored {
		t.Errorf("POR stored more states: %d > %d",
			por.Safety.Stats.StatesStored, full.Safety.Stats.StatesStored)
	}
}
