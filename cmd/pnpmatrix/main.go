// Command pnpmatrix sweeps the connector design space (experiment E12):
// every send-port kind x channel kind x receive-port kind is composed into
// a producer/consumer system and verified. For each cell it reports
// whether the system can deadlock, whether messages can be lost (the
// consumer's completion state is unreachable), and the state count —
// demonstrating the paper's claim that the small block library spans a
// wide range of observable interaction semantics.
//
// The under-lossy column re-verifies each cell under the standard fault
// plan — the same composition with its channel swapped for a lossy
// buffer that may drop or duplicate messages in transit. No plain
// composition survives it (delivery degrades to may-lose-messages),
// which is what motivates protocol blocks like internal/abp.
//
// pnpmatrix is a preset of the sweep engine: it expands sweep.Matrix and
// renders the result as the E12 table. cmd/pnpsweep runs the same preset
// against a remote verification service.
//
// Usage: pnpmatrix [-msgs N] [-bufsize N] [-workers N] [-metrics]
//
//	[-trace-out FILE]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"pnp/internal/checker"
	"pnp/internal/obs"
	"pnp/internal/obs/tracing"
	"pnp/internal/sweep"
)

func main() {
	msgs := flag.Int("msgs", 3, "messages the producer sends")
	bufsize := flag.Int("bufsize", 1, "size of sized channels")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "breadth-first search workers per cell (0 or 1 = inline on one goroutine)")
	metrics := flag.Bool("metrics", false, "collect checker metrics across the sweep and print the table")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file of the sweep's spans")
	flag.Parse()
	if err := run(*msgs, *bufsize, *workers, *metrics, *traceOut); err != nil {
		fmt.Fprintf(os.Stderr, "pnpmatrix: %v\n", err)
		os.Exit(1)
	}
}

func run(msgs, bufsize, workers int, metrics bool, traceOut string) error {
	var reg *obs.Registry
	if metrics {
		reg = obs.NewRegistry()
	}
	var rec *tracing.Recorder
	if traceOut != "" {
		rec = tracing.NewRecorder(tracing.DefaultRecorderCapacity)
	}
	fmt.Printf("producer sends %d message(s); sized channels hold %d\n\n", msgs, bufsize)
	fmt.Printf("%-52s %-22s %-18s %8s %10s %10s\n", "connector", "verdict", "under-lossy", "states", "states/s", "time")

	res, err := sweep.Run(context.Background(), sweep.Matrix(msgs, bufsize), sweep.Config{
		SearchBudget: workers,
		Options:      checker.Options{Workers: workers},
		Registry:     reg,
		Tracer:       rec,
	})
	if err != nil {
		return err
	}
	if rec != nil {
		if err := tracing.WriteChromeFile(traceOut, rec.Spans()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s\n", traceOut)
	}
	rows := sweep.MatrixRows(res)
	for _, row := range rows {
		if row.Cell.Err != "" {
			return fmt.Errorf("%s: %s", row.Cell.Connector, row.Cell.Err)
		}
		elapsed := time.Duration(row.Cell.ElapsedMS * float64(time.Millisecond))
		rate := "-"
		if elapsed > 0 {
			rate = fmt.Sprintf("%.3gk/s", float64(row.Cell.States)/elapsed.Seconds()/1e3)
		}
		fmt.Printf("%-52s %-22s %-18s %8d %10s %10s\n",
			row.Cell.Connector, row.Cell.Verdict, row.UnderLossy, row.Cell.States, rate,
			elapsed.Round(time.Millisecond))
	}

	counts := map[string]int{}
	faultSurvivors := 0
	for _, row := range rows {
		counts[row.Cell.Verdict]++
		if row.UnderLossy == "delivers-all" {
			faultSurvivors++
		}
	}
	fmt.Printf("\nsummary: %d compositions", len(rows))
	for _, v := range []string{"delivers-all", "may-lose-messages", "deadlock"} {
		if counts[v] > 0 {
			fmt.Printf(", %d %s", counts[v], v)
		}
	}
	fmt.Println()
	fmt.Printf("under lossy channels: %d of %d compositions still guarantee delivery\n", faultSurvivors, len(rows))
	if reg != nil {
		fmt.Println("-- checker metrics across the sweep --")
		reg.Dump(os.Stdout)
	}
	return nil
}
