// Command pnpsweep drives design-space sweeps: it expands a base design
// and a set of block dimensions into a cell matrix and verifies every
// cell, either in-process or by submitting the sweep to a running
// verification service (pnpd) with -remote. Cells stream to the table
// as their verdicts arrive; identical cells run once.
//
//	pnpsweep -preset matrix -msgs 3 -bufsize 1
//	pnpsweep -adl design.adl -channels "fifo(1),fifo(4),single-slot"
//	pnpsweep -remote http://localhost:7447 -preset matrix
//
// Dimensions are ADL tokens: send kinds asyn-nonblocking, asyn-blocking,
// asyn-checking, syn-blocking, syn-checking; channels single-slot,
// fifo(N), priority(N), dropping(N), lossy(N); receive kinds blocking,
// nonblocking. -under-lossy adds each cell's lossy companion, the E12
// fault column.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pnp/internal/adl"
	"pnp/internal/api"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
	"pnp/internal/sweep"
	"pnp/internal/verifyd/client"
)

func main() {
	var (
		remote     = flag.String("remote", "", "verification service base URL (empty = run in-process)")
		adlPath    = flag.String("adl", "", "base design ADL file (custom sweeps)")
		connector  = flag.String("connector", "", "connector to vary (default: the design's only one)")
		sends      = flag.String("sends", "", "comma-separated send-port kinds")
		channels   = flag.String("channels", "", "comma-separated channel kinds, e.g. fifo(2),single-slot")
		recvs      = flag.String("recvs", "", "comma-separated receive-port kinds")
		underLossy = flag.Bool("under-lossy", false, "add each cell's lossy-channel companion")
		lossySize  = flag.Int("lossy-size", 0, "companion buffer size when the primary channel is unsized")
		preset     = flag.String("preset", "", `built-in sweep ("matrix")`)
		msgs       = flag.Int("msgs", 3, "matrix preset: messages the producer sends")
		bufsize    = flag.Int("bufsize", 1, "matrix preset: size of sized channels")
		name       = flag.String("name", "", "sweep name (defaults to the preset or design name)")
		workers    = flag.Int("workers", 0, "search workers per cell (0 = server default)")
		maxStates  = flag.Int("max-states", 0, "state limit per property (0 = unlimited)")
		timeout    = flag.Duration("timeout", 0, "per-cell verification timeout (0 = server default)")
		ranked     = flag.Int("ranked", 0, "after the table, print the N best cells")
		jsonOut    = flag.Bool("json", false, "emit the full result as JSON instead of the table")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON file of the sweep's spans (view in chrome://tracing or Perfetto)")
	)
	flag.Parse()

	ws := api.SweepSpec{
		Name:       *name,
		Connector:  *connector,
		Sends:      splitList(*sends),
		Channels:   splitList(*channels),
		Recvs:      splitList(*recvs),
		UnderLossy: *underLossy,
		LossySize:  *lossySize,
		Preset:     *preset,
		Msgs:       *msgs,
		BufSize:    *bufsize,
		MaxStates:  *maxStates,
		Workers:    *workers,
		TimeoutMS:  int(*timeout / time.Millisecond),
	}
	if err := run(ws, *adlPath, *remote, *ranked, *jsonOut, *traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "pnpsweep: %v\n", err)
		os.Exit(1)
	}
}

func run(ws api.SweepSpec, adlPath, remote string, ranked int, jsonOut bool, traceOut string) error {
	if ws.Preset == "" && adlPath == "" {
		return fmt.Errorf("need -preset or -adl (see -h)")
	}
	if adlPath != "" {
		if ws.Preset != "" {
			return fmt.Errorf("-preset and -adl are mutually exclusive")
		}
		base, comps, err := loadDesign(adlPath)
		if err != nil {
			return err
		}
		ws.Base = base
		ws.Components = comps
		if ws.Name == "" {
			ws.Name = strings.TrimSuffix(filepath.Base(adlPath), filepath.Ext(adlPath))
		}
	}

	// Local and remote runs produce the same document, so -json and the
	// ranking below do not depend on where the sweep ran. Under -json the
	// live table goes to stderr and stdout carries only the document.
	table := io.Writer(os.Stdout)
	if jsonOut {
		table = os.Stderr
	}
	var res *api.SweepResult
	var err error
	if remote != "" {
		res, err = runRemote(ws, remote, traceOut, table)
	} else {
		res, err = runLocal(ws, traceOut, table)
	}
	if err != nil {
		return err
	}

	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Printf("\nsweep %q: %d cells, %d passed, %d failed, %d deduped, result cache %d hits / %d misses, %s\n",
		res.Name, res.Total, res.Passed, res.Failed, res.DedupHits, res.CacheHits, res.CacheMisses,
		time.Duration(res.ElapsedMS*float64(time.Millisecond)).Round(time.Millisecond))
	if ranked > 0 {
		cells := res.Ranked()
		if ranked < len(cells) {
			cells = cells[:ranked]
		}
		fmt.Printf("\nbest cells:\n")
		for i, c := range cells {
			fmt.Printf("%2d. %-52s %-22s %8d states\n", i+1, c.Connector, c.Verdict, c.States)
		}
	}
	return nil
}

// loadDesign reads the base ADL and inlines the component files it
// references, resolved relative to the design's directory — a remote
// service has no access to the local filesystem.
func loadDesign(path string) (string, map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	base := string(raw)
	refs, err := adl.ComponentRefs(base)
	if err != nil {
		return "", nil, err
	}
	comps := make(map[string]string, len(refs))
	dir := filepath.Dir(path)
	for _, ref := range refs {
		text, err := os.ReadFile(filepath.Join(dir, ref))
		if err != nil {
			return "", nil, fmt.Errorf("component %q: %w", ref, err)
		}
		comps[ref] = string(text)
	}
	return base, comps, nil
}

func printHeader(w io.Writer) {
	fmt.Fprintf(w, "%-52s %-22s %8s %7s %10s\n", "connector", "verdict", "states", "cached", "time")
}

func printRow(w io.Writer, c api.SweepCell) {
	if c.Err != "" {
		fmt.Fprintf(w, "%-52s %-22s %s\n", c.Connector, "error", c.Err)
		return
	}
	cached := "-"
	if c.Deduped {
		cached = "dedup"
	} else if c.CacheMisses == 0 {
		cached = "hit"
	}
	fmt.Fprintf(w, "%-52s %-22s %8d %7s %10s\n", c.Connector, c.Verdict, c.States, cached,
		time.Duration(c.ElapsedMS*float64(time.Millisecond)).Round(time.Millisecond))
}

func runLocal(ws api.SweepSpec, traceOut string, table io.Writer) (*api.SweepResult, error) {
	spec, err := sweep.Compile(ws)
	if err != nil {
		return nil, err
	}
	var rec *tracing.Recorder
	if traceOut != "" {
		rec = tracing.NewRecorder(tracing.DefaultRecorderCapacity)
	}
	printHeader(table)
	res, err := sweep.Run(context.Background(), spec, sweep.Config{
		Registry: obs.NewRegistry(),
		Tracer:   rec,
		OnCell:   func(c api.SweepCell) { printRow(table, c) },
	})
	if err != nil {
		return nil, err
	}
	if rec != nil {
		if werr := tracing.WriteChromeFile(traceOut, rec.Spans()); werr != nil {
			return nil, werr
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", traceOut)
	}
	return res, nil
}

func runRemote(ws api.SweepSpec, base, traceOut string, table io.Writer) (*api.SweepResult, error) {
	c := client.New(base)
	ctx := context.Background()
	// With -trace-out the submission carries a traceparent, so the remote
	// sweep, its cells, and their jobs all join this locally-rooted trace.
	var rec *tracing.Recorder
	var rootSpan *tracing.Span
	if traceOut != "" {
		rec = tracing.NewRecorder(tracing.DefaultRecorderCapacity)
		ctx, rootSpan = rec.StartSpan(ctx, "pnpsweep", tracing.A("remote", base))
	}
	st, err := c.SubmitSweep(ctx, ws)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(table, "sweep %s: %d cells on %s\n", st.ID, st.Total, base)
	printHeader(table)
	final, err := c.StreamSweep(ctx, st.ID, func(cell api.SweepCell) { printRow(table, cell) })
	if err != nil {
		return nil, err
	}
	if final.Err != "" {
		return nil, fmt.Errorf("sweep failed: %s", final.Err)
	}
	if final.Result == nil {
		return nil, fmt.Errorf("sweep %s finished without a result", st.ID)
	}
	if rec != nil {
		rootSpan.End()
		spans := rec.Spans()
		if remoteSpans, terr := c.SweepTrace(ctx, st.ID); terr == nil {
			spans = append(spans, remoteSpans...)
		} else {
			fmt.Fprintf(os.Stderr, "pnpsweep: fetching remote trace: %v (is pnpd running with --trace-entries > 0?)\n", terr)
		}
		if werr := tracing.WriteChromeFile(traceOut, spans); werr != nil {
			return nil, werr
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", traceOut)
	}
	return final.Result, nil
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
