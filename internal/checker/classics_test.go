package checker

import (
	"strings"
	"testing"

	"pnp/internal/model"
	"pnp/internal/pml"
)

// Classic concurrency protocols as end-to-end validation of the whole
// pml -> model -> checker stack.

// diningSource models N philosophers with fork array f[N]: f[i] == 1 means
// fork i is taken. grabFirst selects each philosopher's first fork.
const diningSymmetric = `
byte f[3];
byte eating;
active [3] proctype Phil() {
	byte left, right;
	left = _pid;
	right = _pid + 1;
	if
	:: right == 3 -> right = 0
	:: else
	fi;
	do
	:: atomic { f[left] == 0 -> f[left] = 1 };
	   atomic { f[right] == 0 -> f[right] = 1 };
	   eating = eating + 1;
	   eating = eating - 1;
	   f[right] = 0;
	   f[left] = 0
	od
}`

// diningAsymmetric breaks the symmetry: the last philosopher picks up the
// right fork first, which removes the circular wait.
const diningAsymmetric = `
byte f[3];
byte eating;
active [3] proctype Phil() {
	byte first, second, tmp;
	first = _pid;
	second = _pid + 1;
	if
	:: second == 3 -> second = 0
	:: else
	fi;
	if
	:: _pid == 2 -> tmp = first; first = second; second = tmp
	:: else
	fi;
	do
	:: atomic { f[first] == 0 -> f[first] = 1 };
	   atomic { f[second] == 0 -> f[second] = 1 };
	   eating = eating + 1;
	   eating = eating - 1;
	   f[second] = 0;
	   f[first] = 0
	od
}`

func TestDiningPhilosophersDeadlock(t *testing.T) {
	s := sysFromSource(t, diningSymmetric)
	res := New(s, Options{}).CheckSafety()
	if res.OK || res.Kind != Deadlock {
		t.Fatalf("symmetric philosophers should deadlock, got %s", res.Summary())
	}
	// The counterexample must show all three first-fork grabs.
	text := res.Trace.String()
	for _, p := range []string{"Phil[0]", "Phil[1]", "Phil[2]"} {
		if !strings.Contains(text, p) {
			t.Errorf("counterexample missing %s:\n%s", p, text)
		}
	}
}

func TestDiningPhilosophersAsymmetricFix(t *testing.T) {
	s := sysFromSource(t, diningAsymmetric)
	res := New(s, Options{}).CheckSafety()
	if !res.OK {
		t.Fatalf("asymmetric philosophers should be deadlock-free: %s\n%s", res.Summary(), res.Trace)
	}
}

func TestDiningMutualExclusionOnForks(t *testing.T) {
	// At most 3 forks exist, so at most 1 philosopher eats with 3 forks...
	// more precisely: eating <= 1 with 3 forks and 2 forks per meal is
	// false (floor(3/2)=1), so check eating <= 1.
	s := sysFromSource(t, diningAsymmetric)
	inv, err := InvariantFromSource(s.Prog, "max-eaters", "eating <= 1")
	if err != nil {
		t.Fatal(err)
	}
	res := New(s, Options{Invariants: []Invariant{inv}}).CheckSafety()
	if !res.OK {
		t.Fatalf("eating <= 1 should hold with 3 forks: %s", res.Summary())
	}
}

// changRoberts is leader election on a unidirectional ring: each node
// forwards the maximum id it has seen; a node that receives its own id is
// the leader. ids are a permutation stored in an array.
const changRoberts = `
byte leader;
byte elected;
chan ring0 = [1] of { byte };
chan ring1 = [1] of { byte };
chan ring2 = [1] of { byte };

proctype Node(chan in; chan out; byte myid) {
	byte v;
	out!myid;
	end: do
	:: in?v ->
	   if
	   :: v > myid -> out!v
	   :: v == myid ->
	      leader = myid;
	      elected = elected + 1
	   :: else
	   fi
	od
}`

// changRobertsRing instantiates the three-node ring with ids 5, 9, 2.
func changRobertsRing(t *testing.T) *model.System {
	t.Helper()
	prog, err := pml.CompileSource(changRoberts)
	if err != nil {
		t.Fatal(err)
	}
	s := model.New(prog)
	r0, _ := s.ChannelByName("ring0")
	r1, _ := s.ChannelByName("ring1")
	r2, _ := s.ChannelByName("ring2")
	// Ring: node A -> ring0 -> node B -> ring1 -> node C -> ring2 -> node A.
	// ids 5, 9, 2: node with id 9 must win.
	if _, err := s.Spawn("Node", model.Chan(r2), model.Chan(r0), model.Int(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn("Node", model.Chan(r0), model.Chan(r1), model.Int(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Spawn("Node", model.Chan(r1), model.Chan(r2), model.Int(2)); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestChangRobertsLeaderElection(t *testing.T) {
	s := changRobertsRing(t)
	prog := s.Prog

	// Safety: never a wrong leader, never more than one election.
	inv1, err := InvariantFromSource(prog, "right-leader", "leader == 0 || leader == 9")
	if err != nil {
		t.Fatal(err)
	}
	inv2, err := InvariantFromSource(prog, "one-election", "elected <= 1")
	if err != nil {
		t.Fatal(err)
	}
	res := New(s, Options{Invariants: []Invariant{inv1, inv2}}).CheckSafety()
	if !res.OK {
		t.Fatalf("election safety failed: %s\n%s", res.Summary(), res.Trace)
	}
	// Progress: the election always completes (AG EF elected).
	target, err := prog.CompileGlobalExpr("elected == 1 && leader == 9")
	if err != nil {
		t.Fatal(err)
	}
	goal := New(s, Options{}).CheckEventuallyReachable(target)
	if !goal.OK {
		t.Fatalf("election never completes: %s", goal.Summary())
	}
}
