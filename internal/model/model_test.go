package model

import (
	"strings"
	"testing"

	"pnp/internal/pml"
)

func mustSystem(t testing.TB, src string) *System {
	t.Helper()
	prog, err := pml.CompileSource(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	s := New(prog)
	if err := s.SpawnActive(); err != nil {
		t.Fatalf("SpawnActive: %v", err)
	}
	return s
}

// runToQuiescence repeatedly takes the only enabled transition, failing on
// nondeterminism, and returns the final state. Useful for deterministic
// straight-line models.
func runToQuiescence(t *testing.T, s *System, st *State, maxSteps int) *State {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		trs := s.Successors(st)
		if len(trs) == 0 {
			return st
		}
		if len(trs) > 1 {
			t.Fatalf("step %d: nondeterministic (%d transitions)", i, len(trs))
		}
		if trs[0].Violation != "" {
			t.Fatalf("step %d: violation: %s", i, trs[0].Violation)
		}
		st = trs[0].Next
	}
	t.Fatalf("did not quiesce in %d steps", maxSteps)
	return nil
}

func globalValue(t *testing.T, s *System, st *State, name string) int64 {
	t.Helper()
	for i, v := range s.Prog.GlobalVars {
		if v.Name == name {
			return st.Globals[i]
		}
	}
	t.Fatalf("no global %q", name)
	return 0
}

func TestStraightLineExecution(t *testing.T) {
	s := mustSystem(t, `
byte x;
active proctype P() {
	x = 1;
	x = x + 41
}`)
	st := runToQuiescence(t, s, s.InitialState(), 10)
	if got := globalValue(t, s, st, "x"); got != 42 {
		t.Errorf("x = %d, want 42", got)
	}
	if !s.AtEndState(st, 0) {
		t.Errorf("process not at end state after completion")
	}
}

func TestBufferedSendRecv(t *testing.T) {
	s := mustSystem(t, `
chan c = [2] of { byte, byte };
byte got1, got2;
active proctype Snd() {
	c!1,2;
	c!3,4
}
active proctype Rcv() {
	c?got1,got2
}`)
	st := s.InitialState()
	// Sender can always run; drive sender twice then receiver.
	for i := 0; i < 3; i++ {
		trs := s.Successors(st)
		if len(trs) == 0 {
			t.Fatalf("step %d: no transitions", i)
		}
		st = trs[0].Next
	}
	// After send,send,(send-blocked so recv) order depends; just explore
	// until quiescent and check the receiver got the first message.
	for {
		trs := s.Successors(st)
		if len(trs) == 0 {
			break
		}
		st = trs[0].Next
	}
	if globalValue(t, s, st, "got1") != 1 || globalValue(t, s, st, "got2") != 2 {
		t.Errorf("received %d,%d; want 1,2 (FIFO)",
			globalValue(t, s, st, "got1"), globalValue(t, s, st, "got2"))
	}
}

func TestSendBlocksWhenFull(t *testing.T) {
	s := mustSystem(t, `
chan c = [1] of { byte };
active proctype Snd() {
	c!1;
	c!2
}`)
	st := s.InitialState()
	trs := s.Successors(st)
	if len(trs) != 1 {
		t.Fatalf("initial transitions = %d", len(trs))
	}
	st = trs[0].Next
	if trs := s.Successors(st); len(trs) != 0 {
		t.Errorf("send on full channel should block, got %d transitions", len(trs))
	}
}

func TestRendezvous(t *testing.T) {
	s := mustSystem(t, `
chan c = [0] of { byte };
byte got;
active proctype Snd() {
	c!7
}
active proctype Rcv() {
	c?got
}`)
	st := s.InitialState()
	trs := s.Successors(st)
	if len(trs) != 1 {
		t.Fatalf("rendezvous transitions = %d, want 1 combined", len(trs))
	}
	tr := trs[0]
	if tr.Partner != 1 {
		t.Errorf("partner = %d, want 1", tr.Partner)
	}
	st = tr.Next
	if globalValue(t, s, st, "got") != 7 {
		t.Errorf("got = %d, want 7", globalValue(t, s, st, "got"))
	}
	if !s.AtEndState(st, 0) || !s.AtEndState(st, 1) {
		t.Errorf("both processes should be done")
	}
}

func TestRendezvousBlocksWithoutPartner(t *testing.T) {
	s := mustSystem(t, `
chan c = [0] of { byte };
active proctype Snd() { c!7 }`)
	if trs := s.Successors(s.InitialState()); len(trs) != 0 {
		t.Errorf("rendezvous send with no receiver should block, got %d", len(trs))
	}
}

func TestRendezvousPatternMatch(t *testing.T) {
	s := mustSystem(t, `
mtype = { OK, FAIL };
chan c = [0] of { mtype, byte };
byte who;
active proctype Snd() {
	c!OK,5
}
active proctype WrongRcv() {
	byte x;
	c?FAIL,x
}
active proctype RightRcv() {
	c?OK,who
}`)
	st := s.InitialState()
	trs := s.Successors(st)
	if len(trs) != 1 {
		t.Fatalf("transitions = %d, want 1 (only matching receiver)", len(trs))
	}
	if trs[0].Partner != 2 {
		t.Errorf("partner = %d, want RightRcv (pid 2)", trs[0].Partner)
	}
	if globalValue(t, s, trs[0].Next, "who") != 5 {
		t.Errorf("who = %d, want 5", globalValue(t, s, trs[0].Next, "who"))
	}
}

func TestEvalMatchAgainstPid(t *testing.T) {
	// The paper's ports match signals tagged with their own pid via
	// eval(_pid).
	s := mustSystem(t, `
chan c = [2] of { byte };
byte winner = 99;
active proctype A() {
	c?eval(_pid);
	winner = _pid
}
active proctype B() {
	c?eval(_pid);
	winner = _pid
}
active proctype Producer() {
	c!1
}`)
	st := s.InitialState()
	// Producer sends 1; only B (pid 1) may receive it.
	var final *State
	for {
		trs := s.Successors(st)
		if len(trs) == 0 {
			final = st
			break
		}
		if len(trs) > 1 {
			t.Fatalf("unexpected nondeterminism: %d transitions", len(trs))
		}
		st = trs[0].Next
	}
	if globalValue(t, s, final, "winner") != 1 {
		t.Errorf("winner = %d, want 1 (pid-tagged receive)", globalValue(t, s, final, "winner"))
	}
}

func TestRandomReceiveSkipsNonMatching(t *testing.T) {
	s := mustSystem(t, `
mtype = { A, B };
chan c = [4] of { mtype };
byte done;
active proctype P() {
	c!A;
	c!B;
	c??B;
	done = 1
}`)
	st := runToQuiescence(t, s, s.InitialState(), 10)
	if globalValue(t, s, st, "done") != 1 {
		t.Errorf("?? failed to retrieve non-head matching message")
	}
	// The remaining message must be A.
	id, _ := s.ChannelByName("c")
	if len(st.Chans[id]) != 1 || st.Chans[id][0] != 1 {
		t.Errorf("channel contents = %v, want [A=1]", st.Chans[id])
	}
}

func TestPlainReceiveChecksHeadOnly(t *testing.T) {
	s := mustSystem(t, `
mtype = { A, B };
chan c = [4] of { mtype };
active proctype P() {
	c!A;
	c?B
}`)
	st := s.InitialState()
	trs := s.Successors(st)
	st = trs[0].Next // send A
	if trs := s.Successors(st); len(trs) != 0 {
		t.Errorf("c?B with head A should block, got %d transitions", len(trs))
	}
}

func TestSortedSend(t *testing.T) {
	s := mustSystem(t, `
chan c = [4] of { byte };
active proctype P() {
	c!!3;
	c!!1;
	c!!2;
	c!!1
}`)
	st := runToQuiescence(t, s, s.InitialState(), 10)
	id, _ := s.ChannelByName("c")
	want := []int64{1, 1, 2, 3}
	got := st.Chans[id]
	if len(got) != len(want) {
		t.Fatalf("contents = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("contents = %v, want %v", got, want)
			break
		}
	}
}

func TestElseOnlyWhenBlocked(t *testing.T) {
	s := mustSystem(t, `
chan c = [1] of { byte };
byte path;
active proctype P() {
	if
	:: c?path
	:: else -> path = 9
	fi
}`)
	st := s.InitialState()
	if trs := s.Successors(st); len(trs) != 1 {
		t.Fatalf("transitions = %d, want 1 (else only)", len(trs))
	}
	st = runToQuiescence(t, s, st, 10)
	if globalValue(t, s, st, "path") != 9 {
		t.Errorf("else branch not taken")
	}
}

func TestElseSuppressedWhenSiblingEnabled(t *testing.T) {
	s := mustSystem(t, `
byte path;
active proctype P() {
	if
	:: path == 0 -> path = 1
	:: else -> path = 9
	fi
}`)
	st := s.InitialState()
	if trs := s.Successors(st); len(trs) != 1 {
		t.Fatalf("transitions = %d, want 1", len(trs))
	}
	st = runToQuiescence(t, s, st, 10)
	if globalValue(t, s, st, "path") != 1 {
		t.Errorf("else taken although sibling was enabled")
	}
}

func TestElseWithRendezvousSibling(t *testing.T) {
	// else must be suppressed when a rendezvous partner is ready.
	s := mustSystem(t, `
chan c = [0] of { byte };
byte path;
active proctype Rcv() {
	if
	:: c?path
	:: else -> path = 9
	fi
}
active proctype Snd() {
	c!5
}`)
	st := s.InitialState()
	for _, tr := range s.Successors(st) {
		if tr.Proc == 0 && tr.Edge.Kind == pml.EdgeElse {
			t.Errorf("else fired although a rendezvous sender was ready")
		}
	}
}

func TestAtomicExcludesInterleaving(t *testing.T) {
	s := mustSystem(t, `
byte x;
active proctype A() {
	atomic { x = 1; x = x + 1; x = x * 2 }
}
active proctype B() {
	x = 100
}`)
	// From the state after A's first atomic step, only A may move.
	st := s.InitialState()
	var afterFirst *State
	for _, tr := range s.Successors(st) {
		if tr.Proc == 0 {
			afterFirst = tr.Next
		}
	}
	if afterFirst == nil {
		t.Fatal("A could not start")
	}
	if afterFirst.Atomic != 0 {
		t.Fatalf("atomic token = %d, want 0", afterFirst.Atomic)
	}
	trs := s.Successors(afterFirst)
	for _, tr := range trs {
		if tr.Proc != 0 {
			t.Errorf("process %d moved inside A's atomic section", tr.Proc)
		}
	}
}

func TestAtomicReleasesWhenBlocked(t *testing.T) {
	s := mustSystem(t, `
chan c = [0] of { byte };
byte x;
active proctype A() {
	atomic { x = 1; c!5 }
}
active proctype B() {
	byte y;
	x == 1 -> c?y
}`)
	st := s.InitialState()
	// A's first step enters the atomic region but then blocks on the
	// rendezvous (B is not yet at the receive), so atomicity is lost.
	var after *State
	for _, tr := range s.Successors(st) {
		if tr.Proc == 0 {
			after = tr.Next
		}
	}
	if after == nil {
		t.Fatal("A could not start")
	}
	if after.Atomic != -1 {
		t.Errorf("atomic token = %d, want released (-1)", after.Atomic)
	}
	// B must now be able to move.
	moved := false
	for _, tr := range s.Successors(after) {
		if tr.Proc == 1 {
			moved = true
		}
	}
	if !moved {
		t.Errorf("B cannot move after A's atomic section blocked")
	}
}

func TestAssertViolation(t *testing.T) {
	s := mustSystem(t, `
byte x;
active proctype P() {
	x = 5;
	assert(x == 4)
}`)
	st := s.InitialState()
	st = s.Successors(st)[0].Next
	trs := s.Successors(st)
	if len(trs) != 1 || trs[0].Violation == "" {
		t.Fatalf("expected assertion violation, got %+v", trs)
	}
	if !strings.Contains(trs[0].Violation, "assertion") {
		t.Errorf("violation = %q", trs[0].Violation)
	}
}

func TestDivisionByZeroViolation(t *testing.T) {
	s := mustSystem(t, `
byte x, y;
active proctype P() {
	y = 5 / x
}`)
	trs := s.Successors(s.InitialState())
	if len(trs) != 1 || !strings.Contains(trs[0].Violation, "division by zero") {
		t.Fatalf("expected division-by-zero violation, got %+v", trs)
	}
}

func TestByteTruncationOnStore(t *testing.T) {
	s := mustSystem(t, `
byte x;
active proctype P() {
	x = 255;
	x = x + 1
}`)
	st := runToQuiescence(t, s, s.InitialState(), 10)
	if got := globalValue(t, s, st, "x"); got != 0 {
		t.Errorf("x = %d, want 0 (byte wraps)", got)
	}
}

func TestSpawnErrors(t *testing.T) {
	prog, err := pml.CompileSource(`
chan g = [1] of { byte };
proctype P(chan c; byte n) { c!n }
proctype Q(chan c) { c!1,2 }
`)
	if err != nil {
		t.Fatal(err)
	}
	s := New(prog)
	g, _ := s.ChannelByName("g")

	if _, err := s.Spawn("Nope"); err == nil {
		t.Error("unknown proctype not rejected")
	}
	if _, err := s.Spawn("P", Chan(g)); err == nil {
		t.Error("wrong arg count not rejected")
	}
	if _, err := s.Spawn("P", Int(1), Chan(g)); err == nil {
		t.Error("arg kind mismatch not rejected")
	}
	if _, err := s.Spawn("Q", Chan(g)); err == nil {
		t.Error("channel arity mismatch through parameter not rejected")
	}
	if _, err := s.Spawn("P", Chan(g), Int(3)); err != nil {
		t.Errorf("valid spawn rejected: %v", err)
	}
}

func TestLocalChannelPerInstance(t *testing.T) {
	prog, err := pml.CompileSource(`
proctype P() {
	chan buf = [2] of { byte };
	buf!1
}`)
	if err != nil {
		t.Fatal(err)
	}
	s := New(prog)
	a, err := s.Spawn("P")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Spawn("P")
	if err != nil {
		t.Fatal(err)
	}
	if a.ChanBind[0] == b.ChanBind[0] {
		t.Errorf("instances share a local channel")
	}
	if s.NumChannels() != 2 {
		t.Errorf("NumChannels = %d, want 2", s.NumChannels())
	}
}

func TestStateKeyDistinguishesStates(t *testing.T) {
	s := mustSystem(t, `
chan c = [2] of { byte };
byte x;
active proctype P() {
	c!1; c!2; x = 1
}`)
	st := s.InitialState()
	seen := map[string]bool{st.Key(): true}
	for i := 0; i < 3; i++ {
		st = s.Successors(st)[0].Next
		k := st.Key()
		if seen[k] {
			t.Fatalf("state key collision at step %d", i)
		}
		seen[k] = true
	}
}

func TestStateKeyStable(t *testing.T) {
	s := mustSystem(t, `byte x; active proctype P() { x = 1 }`)
	st := s.InitialState()
	if st.Key() != st.Key() {
		t.Error("Key not deterministic")
	}
	st2 := s.InitialState()
	if st.Key() != st2.Key() {
		t.Error("equal states have different keys")
	}
}

func TestFormatTransition(t *testing.T) {
	s := mustSystem(t, `
mtype = { PING };
chan c = [1] of { mtype };
active proctype P() { c!PING }`)
	trs := s.Successors(s.InitialState())
	got := s.FormatTransition(trs[0])
	if !strings.Contains(got, "P[0]") || !strings.Contains(got, "c!") || !strings.Contains(got, "PING") {
		t.Errorf("FormatTransition = %q", got)
	}
}

func TestNondeterministicChoiceYieldsAllBranches(t *testing.T) {
	s := mustSystem(t, `
byte x;
active proctype P() {
	if
	:: x = 1
	:: x = 2
	:: x = 3
	fi
}`)
	trs := s.Successors(s.InitialState())
	if len(trs) != 3 {
		t.Fatalf("transitions = %d, want 3", len(trs))
	}
	vals := map[int64]bool{}
	for _, tr := range trs {
		vals[globalValue(t, s, tr.Next, "x")] = true
	}
	if !vals[1] || !vals[2] || !vals[3] {
		t.Errorf("branch values = %v", vals)
	}
}

func TestArraySemantics(t *testing.T) {
	s := mustSystem(t, `
byte a[3];
byte sum;
active proctype P() {
	byte i;
	do
	:: i < 3 -> a[i] = i + 10; i = i + 1
	:: else -> break
	od;
	sum = a[0] + a[1] + a[2]
}`)
	st := runToQuiescence(t, s, s.InitialState(), 40)
	if got := globalValue(t, s, st, "sum"); got != 33 {
		t.Errorf("sum = %d, want 33", got)
	}
}

func TestForLoopSemantics(t *testing.T) {
	s := mustSystem(t, `
byte a[5];
byte i, sum;
active proctype P() {
	for (i : 0 .. 4) {
		a[i] = i * 2
	};
	for (i : 0 .. 4) {
		sum = sum + a[i]
	}
}`)
	st := runToQuiescence(t, s, s.InitialState(), 120)
	if got := globalValue(t, s, st, "sum"); got != 20 {
		t.Errorf("sum = %d, want 20 (0+2+4+6+8)", got)
	}
}

func TestArrayOutOfBoundsIsViolation(t *testing.T) {
	s := mustSystem(t, `
byte a[2];
byte i;
active proctype P() {
	i = 5;
	a[i] = 1
}`)
	st := s.InitialState()
	st = s.Successors(st)[0].Next
	trs := s.Successors(st)
	if len(trs) != 1 || !strings.Contains(trs[0].Violation, "index out of range") {
		t.Fatalf("expected bounds violation, got %+v", trs)
	}
}

func TestArrayReadOutOfBoundsIsViolation(t *testing.T) {
	s := mustSystem(t, `
byte a[2];
byte x;
active proctype P() {
	x = a[7]
}`)
	trs := s.Successors(s.InitialState())
	if len(trs) != 1 || !strings.Contains(trs[0].Violation, "index out of range") {
		t.Fatalf("expected bounds violation, got %+v", trs)
	}
}

func TestTimeoutFiresOnlyWhenBlocked(t *testing.T) {
	// The receiver escapes via timeout once the system has nothing else
	// to do — Spin's timeout semantics.
	s := mustSystem(t, `
chan c = [0] of { byte };
byte escaped, got;
active proctype R() {
	do
	:: c?got
	:: timeout -> escaped = 1; break
	od
}
active proctype W() {
	byte x;
	x = 1;
	x = 2
}`)
	st := s.InitialState()
	// While W still has work, timeout must not fire.
	for i := 0; i < 2; i++ {
		trs := s.Successors(st)
		for _, tr := range trs {
			if tr.Proc == 0 {
				t.Fatalf("step %d: R moved while W was runnable (timeout fired early)", i)
			}
		}
		st = trs[0].Next
	}
	// Now only the timeout branch remains.
	st = runToQuiescence(t, s, st, 10)
	if globalValue(t, s, st, "escaped") != 1 {
		t.Error("timeout branch never fired after the system blocked")
	}
	if !s.AtEndState(st, 0) {
		t.Error("R did not terminate")
	}
}

func TestTimeoutPreventsDeadlockReport(t *testing.T) {
	s := mustSystem(t, `
chan c = [0] of { byte };
byte x;
active proctype P() {
	if
	:: c?x
	:: timeout -> x = 9
	fi
}`)
	st := runToQuiescence(t, s, s.InitialState(), 10)
	if globalValue(t, s, st, "x") != 9 {
		t.Errorf("x = %d, want 9 via timeout", globalValue(t, s, st, "x"))
	}
}

func TestMultipleRendezvousReceiversGiveMultipleTransitions(t *testing.T) {
	s := mustSystem(t, `
chan c = [0] of { byte };
byte r1, r2;
active proctype S() { c!1 }
active proctype R1() { c?r1 }
active proctype R2() { c?r2 }`)
	trs := s.Successors(s.InitialState())
	if len(trs) != 2 {
		t.Fatalf("transitions = %d, want 2 (one per receiver)", len(trs))
	}
}
