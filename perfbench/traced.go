package main

import (
	"time"
)

// runTraced is the traced run of a workload: the per-layer suite, which
// measures every layer whatever the workload, then the tracing overhead on
// the named workload (its headline figure traced vs untraced, measured in
// this same process). The suite's timed runs that attach a metrics
// registry or the step timer are the traced runs; runs without one are
// untraced and are named so in README.md.
func runTraced(r *run, name string) error {
	part := r.seconds / 10
	part = max(part, 200*time.Millisecond)
	part = min(part, 6*time.Second)
	if err := msgLayer(r, part/2); err != nil {
		return err
	}
	if err := netxportLayer(r, part/2); err != nil {
		return err
	}
	simOverhead := machineLayer(r, part)
	instanceMS, err := livenetLayer(r, part/2)
	if err != nil {
		return err
	}
	logOverhead := logLayer(r, part, name, instanceMS)
	switch name {
	case "sim-zoo":
		r.put("trace.overhead_frac", "frac", simOverhead)
	default:
		r.put("trace.overhead_frac", "frac", logOverhead)
	}
	return nil
}
