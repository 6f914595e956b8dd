package main

import (
	"bufio"
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"

	"pnp/internal/adl"
	"pnp/internal/blocks"
	"pnp/internal/checker"
	"pnp/internal/verifyd/client"
)

// The golden table pins every verdict the benchmark checks. There is no
// oracle independent of this repo's explicit-state search yet, so a row
// is only written when two different engines — the sequential DFS and
// the level-synchronized parallel BFS — agreed on it.

//go:embed golden/*.tsv
var goldenFS embed.FS

// goldenRow is one design's expected outcome. States is compared for
// verified designs (every exhaustive engine stores the same set);
// CELen, the shortest counterexample's length, is compared for
// violations found by a breadth-first engine.
type goldenRow struct {
	Class  string
	States int
	CELen  int
}

type goldenTable map[string]goldenRow

// goldenMaxStates bounds the searches that produce family rows; members
// past it get no row and are never generated, keeping the service
// workloads about the service.
const goldenMaxStates = 10000

var classTokens = map[checker.ViolationKind]string{
	checker.NoViolation:        "verified",
	checker.Assertion:          "assertion",
	checker.Deadlock:           "deadlock",
	checker.InvariantViolation: "invariant",
	checker.RuntimeError:       "runtime-error",
	checker.AcceptanceCycle:    "acceptance-cycle",
	checker.SearchLimit:        "search-limit",
	checker.Canceled:           "canceled",
}

// rowOf reduces an in-process result to its golden columns.
func rowOf(res *checker.Result) goldenRow {
	row := goldenRow{Class: classTokens[res.Kind], States: res.Stats.StatesStored}
	if res.OK {
		row.Class = "verified"
	}
	if res.Trace != nil {
		row.CELen = res.Trace.Len()
	}
	return row
}

// rowOfWire reduces a service report with one property to the same
// columns.
func rowOfWire(rep *client.Report) (goldenRow, error) {
	if rep == nil || len(rep.Properties) != 1 {
		return goldenRow{}, fmt.Errorf("report has no single property verdict")
	}
	p := rep.Properties[0]
	return rowOfVerdict(p.OK, p.Verdict, p.States, p.Counterexample)
}

// rowOfVerdict reduces one wire-form property verdict; the
// counterexample arrives rendered, one numbered line per step.
func rowOfVerdict(ok bool, verdict string, states int, counterexample string) (goldenRow, error) {
	if ok {
		return goldenRow{Class: "verified", States: states}, nil
	}
	kind, known := checker.ParseViolationKind(verdict)
	if !known {
		return goldenRow{}, fmt.Errorf("unknown verdict %q", verdict)
	}
	row := goldenRow{Class: classTokens[kind], States: states}
	for _, line := range strings.Split(counterexample, "\n") {
		if t := strings.TrimSpace(line); t != "" && t[0] >= '0' && t[0] <= '9' {
			row.CELen++
		}
	}
	return row, nil
}

// check compares an observed row with the golden one. bfs says the
// observation came from a breadth-first engine, whose counterexamples
// are shortest and therefore comparable.
func (g goldenTable) check(id string, got goldenRow, bfs bool) error {
	want, ok := g[id]
	if !ok {
		return fmt.Errorf("%s: no golden row", id)
	}
	if got.Class != want.Class {
		return fmt.Errorf("%s: verdict %s, golden %s", id, got.Class, want.Class)
	}
	if want.Class == "verified" && got.States != want.States {
		return fmt.Errorf("%s: %d states stored, golden %d", id, got.States, want.States)
	}
	if want.Class != "verified" && bfs && got.CELen != want.CELen {
		return fmt.Errorf("%s: counterexample of %d steps, golden %d", id, got.CELen, want.CELen)
	}
	return nil
}

func loadGolden() (goldenTable, error) {
	out := goldenTable{}
	entries, err := goldenFS.ReadDir("golden")
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		f, err := goldenFS.Open("golden/" + e.Name())
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if text == "" || text[0] == '#' {
				continue
			}
			cols := strings.Split(text, "\t")
			if len(cols) != 4 {
				f.Close()
				return nil, fmt.Errorf("golden/%s:%d: want 4 tab-separated columns", e.Name(), line)
			}
			states, err1 := strconv.Atoi(cols[2])
			ce, err2 := strconv.Atoi(cols[3])
			if err1 != nil || err2 != nil {
				f.Close()
				return nil, fmt.Errorf("golden/%s:%d: bad count", e.Name(), line)
			}
			out[cols[0]] = goldenRow{Class: cols[1], States: states, CELen: ce}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// twoEngines verifies one design with the sequential DFS and with the
// parallel BFS and returns the BFS row, or an error when the engines
// disagree, the search was cut short, or the design does not load.
func twoEngines(d Design, cache *blocks.Cache, maxStates int) (goldenRow, error) {
	sys, err := adl.Load(d.ADL, d.resolve, cache)
	if err != nil {
		return goldenRow{}, err
	}
	if len(sys.LTL) > 0 {
		// The LTL design states its safety claim as a formula; its two
		// engines are the nested DFS here and, through the caller's
		// cross-check, the invariant searches of the plain design.
		p := sys.LTL[0]
		res := checker.New(sys.Builder.System(), checker.Options{}).CheckLTL(p.Formula, p.Props)
		if res.Stats.Truncated {
			return goldenRow{}, fmt.Errorf("%s: LTL search truncated", d.ID)
		}
		return rowOf(res), nil
	}
	opts := checker.Options{Invariants: sys.Invariants, MaxStates: maxStates}
	dfs := checker.New(sys.Builder.System(), opts).CheckSafety()
	opts.Workers = runtime.GOMAXPROCS(0)
	bfs := checker.New(sys.Builder.System(), opts).CheckSafety()
	if dfs.Stats.Truncated || bfs.Stats.Truncated {
		return goldenRow{}, errTooLarge
	}
	a, b := rowOf(dfs), rowOf(bfs)
	if a.Class != b.Class || (b.Class == "verified" && a.States != b.States) {
		return goldenRow{}, fmt.Errorf("%s: engines disagree: dfs %+v, parallel bfs %+v", d.ID, a, b)
	}
	return b, nil
}

var errTooLarge = fmt.Errorf("search exceeds the golden state bound")

// updateGolden regenerates bench/golden/*.tsv under dir (the bench
// source directory). It writes nothing unless every bridge row matches
// the paper, and skips — loudly — any family row the engines disagree
// on.
func updateGolden(dir string) error {
	cache := blocks.NewCache()
	bridge := goldenTable{}
	for _, id := range fixedIDs {
		row, err := twoEngines(fixedDesign(id), cache, 0)
		if err != nil {
			return err
		}
		bridge[id] = row
		fmt.Fprintf(os.Stderr, "golden: %s %+v\n", id, row)
	}
	// The paper's result: asynchronous enter sends violate the bridge
	// invariant, synchronous ones verify, and the LTL phrasing agrees.
	for id, want := range map[string]string{
		bridgeN1: "verified", bridgeN2: "verified", bridgeN1LTL: "verified", bridgeBroken: "invariant",
		smokeOK: "verified", smokeLTL: "verified", smokeBroken: "invariant",
	} {
		if bridge[id].Class != want {
			return fmt.Errorf("golden: %s is %s; the paper says %s", id, bridge[id].Class, want)
		}
	}
	if err := writeGolden(filepath.Join(dir, "golden", "fixed.tsv"), bridge); err != nil {
		return err
	}

	fb := loadFamilyBases()
	universe := familyUniverse()
	family := goldenTable{}
	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		skipped   int
		disagreed []string
		next      = make(chan familyMember)
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := blocks.NewCache()
			for m := range next {
				d, err := fb.design(m)
				var row goldenRow
				if err == nil {
					row, err = twoEngines(d, local, goldenMaxStates)
				}
				mu.Lock()
				switch {
				case err == nil:
					family[m.id()] = row
				case err == errTooLarge:
					skipped++
				default:
					disagreed = append(disagreed, err.Error())
				}
				mu.Unlock()
			}
		}()
	}
	for i, m := range universe {
		if i%2000 == 0 {
			fmt.Fprintf(os.Stderr, "golden: family %d/%d\n", i, len(universe))
		}
		next <- m
	}
	close(next)
	wg.Wait()
	for _, msg := range disagreed {
		fmt.Fprintln(os.Stderr, "golden: REFUSED", msg)
	}
	fmt.Fprintf(os.Stderr, "golden: family %d rows, %d over %d states, %d refused\n",
		len(family), skipped, goldenMaxStates, len(disagreed))
	return writeGolden(filepath.Join(dir, "golden", "family.tsv"), family)
}

func writeGolden(path string, table goldenTable) error {
	ids := make([]string, 0, len(table))
	for id := range table {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	b.WriteString("# design\tclass\tstates_stored\tshortest_ce_len — regenerate with: go run ./bench -update-golden\n")
	for _, id := range ids {
		r := table[id]
		fmt.Fprintf(&b, "%s\t%s\t%d\t%d\n", id, r.Class, r.States, r.CELen)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
