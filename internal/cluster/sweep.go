package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"pnp/internal/api"
	"pnp/internal/obs/tracing"
	"pnp/internal/sweep"
)

// The coordinator as the fleet executor of the one sweep engine
// (sweep.Executor): sweeps are run, tracked and served by the same
// sweep.Service a single pnpd uses, with each distinct cell placed as a
// cluster job — routed and failed over individually, so a node dying
// mid-sweep costs re-placing its in-flight cells, not the sweep.

// Sweeps returns the coordinator's sweep service: the single-node
// engine and registry, with cells executed as cluster jobs.
func (c *Coordinator) Sweeps() *sweep.Service { return c.sweeps }

// Logger implements sweep.Executor.
func (c *Coordinator) Logger() *slog.Logger { return c.logger }

// Submit implements sweep.Executor: one cell becomes one cluster job
// carrying the spec's components and overrides. Per-cell failures (a
// cell no node would accept) land in the outcome's Err; the sweep
// always completes.
func (c *Coordinator) Submit(ctx context.Context, source string, spec sweep.Spec) (func(context.Context) (sweep.Outcome, error), error) {
	req := api.JobRequest{
		ADL:        source,
		Components: spec.Components,
		TimeoutMS:  int(spec.Timeout / time.Millisecond),
	}
	if spec.MaxStates > 0 {
		req.MaxStates = &spec.MaxStates
	}
	if spec.Workers > 0 {
		req.Workers = &spec.Workers
	}
	j, err := c.submitJob(ctx, req)
	if err != nil {
		return nil, err
	}
	return func(ctx context.Context) (sweep.Outcome, error) {
		if err := c.WaitJob(ctx, j); err != nil {
			return sweep.Outcome{}, fmt.Errorf("cluster: waiting for %s: %w", j.st.ID, err)
		}
		o := sweep.Outcome{Job: j.snapshot()}
		// A cache answer ran nowhere and recorded nothing. The fetcher is
		// kept for the sweep's lifetime, so it holds the two ids only.
		if node, remoteID := o.Node, o.RemoteID; remoteID != "" {
			o.RemoteSpans = func(ctx context.Context) []tracing.SpanData {
				return c.remoteSpans(ctx, node, remoteID)
			}
		}
		return o, nil
	}, nil
}
