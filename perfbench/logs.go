package main

import (
	"context"
	"encoding/binary"
	"math/rand/v2"
	"time"

	"resilient"
)

// The replicated-log set-up shared by both log workloads: Figure 2 at n=7,
// k=2, 16-byte ops, batch 16, pipeline 4.
const (
	logN        = 7
	logBatch    = 16
	logPipeline = 4
	logOpBytes  = 16
	// openRate is the open loop's offered rate in ops/s. It sits below the
	// slot-capacity knee (~850 slots/s on 2 cores), so most ops get a slot
	// of their own and latency is set per hop, not by queueing.
	openRate = 500.0
	// closedRoundOps is the size of one closed-loop round: every op is
	// submitted up front, so the 128 slots carry full 16-op batches.
	closedRoundOps = 2048
	// warmupOps is the size of the log run each set-up makes: one TCP mesh
	// with its dials and four slots.
	warmupOps = 64
)

// logOptions is the log configuration of the log workloads at n replicas.
func logOptions(engine resilient.Engine, n int, seed uint64, reg *resilient.MetricsRegistry) resilient.LogOptions {
	p := resilient.ProtocolMalicious
	return resilient.LogOptions{
		Engine:   engine,
		Protocol: p,
		N:        n,
		K:        p.MaxFaults(n),
		Seed:     seed,
		Batch:    logBatch,
		Pipeline: logPipeline,
		Metrics:  reg,
	}
}

// openOptions is one log-tcp-open run of ops operations: the open loop at
// openRate, with two replicas crashing at slot boundaries a quarter and a
// half of the way through while requests keep arriving on schedule.
func openOptions(seed uint64, ops int, reg *resilient.MetricsRegistry) resilient.LogWorkloadOptions {
	rng := rand.New(rand.NewPCG(seed, 0x6c6f672d6f70656e))
	first := rng.IntN(logN)
	second := (first + 1 + rng.IntN(logN-1)) % logN
	opts := resilient.LogWorkloadOptions{
		Log:     logOptions(resilient.EngineTCP, logN, seed, reg),
		Ops:     ops,
		Rate:    openRate,
		OpBytes: logOpBytes,
	}
	opts.Log.Crashes = []resilient.LogCrash{
		{Process: resilient.ID(first), Slot: ops / 4},
		{Process: resilient.ID(second), Slot: ops / 2},
	}
	return opts
}

// closedOptions is one closed-loop round: closedRoundOps ops submitted up
// front (Rate 0), no faults.
func closedOptions(engine resilient.Engine, n int, seed uint64, reg *resilient.MetricsRegistry) resilient.LogWorkloadOptions {
	return resilient.LogWorkloadOptions{
		Log:     logOptions(engine, n, seed, reg),
		Ops:     closedRoundOps,
		OpBytes: logOpBytes,
	}
}

// runTimeout bounds one log call so that a stalled run still ends the
// process well inside its 180-second limit.
func runTimeout(seconds time.Duration) time.Duration {
	t := 2*seconds + 30*time.Second
	if t > 150*time.Second {
		t = 150 * time.Second
	}
	return t
}

// logWarmup is one log set-up: a short closed-loop run that opens a TCP
// mesh, dials it and commits a few slots.
func logWarmup(seed uint64) error {
	opts := resilient.LogWorkloadOptions{
		Log:     logOptions(resilient.EngineTCP, logN, seed, nil),
		Ops:     warmupOps,
		OpBytes: logOpBytes,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := resilient.RunLogWorkload(ctx, opts)
	return err
}

// checkLog checks one log run's output and returns how many of its ops
// failed. The committed sequence must carry the sequence numbers 0..Ops-1
// in order with none missing, and exactly the slots whose rotating
// proposer is dead under the crash plan must be no-op slots.
func checkLog(r *run, what string, opts resilient.LogWorkloadOptions, rep *resilient.LogReport, err error) int {
	if err != nil {
		r.problem("%s: %v", what, err)
		return opts.Ops
	}
	inOrder := 0
	for i, op := range rep.Committed {
		if len(op) < 8 || binary.BigEndian.Uint64(op) != uint64(i) {
			r.problem("%s: committed op %d is out of order", what, i)
			break
		}
		inOrder++
	}
	if inOrder != opts.Ops || rep.Ops != opts.Ops {
		r.problem("%s: %d of %d ops committed in order (report says %d)", what, inOrder, opts.Ops, rep.Ops)
	}

	deadFrom := make(map[resilient.ID]int, len(opts.Log.Crashes))
	for _, c := range opts.Log.Crashes {
		deadFrom[c.Process] = c.Slot
	}
	wantNoops := 0
	for s, v := range rep.SlotDecisions {
		at, crashes := deadFrom[resilient.ID(s%opts.Log.N)]
		noop := crashes && s >= at
		if noop {
			wantNoops++
		}
		want := resilient.V1
		if noop {
			want = resilient.V0
		}
		if v != want {
			r.problem("%s: slot %d decided %v, want %v", what, s, v, want)
			break
		}
	}
	if rep.Slots != len(rep.SlotDecisions) || rep.NoopSlots != wantNoops {
		r.problem("%s: %d no-op slots of %d, crash plan gives %d", what, rep.NoopSlots, rep.Slots, wantNoops)
	}
	return opts.Ops - inOrder
}

// openRun runs log-tcp-open with ops operations, checks it and returns its
// report, nil if the run returned an error.
func openRun(r *run, what string, seed uint64, ops int, reg *resilient.MetricsRegistry) (resilient.LogWorkloadOptions, *resilient.LogReport) {
	opts := openOptions(seed, ops, reg)
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout(time.Duration(float64(ops)/openRate*float64(time.Second))))
	defer cancel()
	rep, err := resilient.RunLogWorkload(ctx, opts)
	failed := checkLog(r, what, opts, rep, err)
	r.count(ops, failed)
	if err != nil {
		return opts, nil
	}
	return opts, rep
}

// openCallSeconds is the length of one open-loop call. A run makes as
// many calls as fit in its seconds and reports the median of their
// percentiles, so one stretch of host noise moves one call, not the run.
const openCallSeconds = 2

// logOpen is the log-tcp-open workload: open-loop calls of openCallSeconds
// at openRate back to back for the run's seconds, each with the crash plan
// of openOptions.
func logOpen(r *run) error {
	if err := r.setup(func(i int) error { return logWarmup(mix(r.seed, uint64(1000+i))) }); err != nil {
		return err
	}
	calls := max(1, int(r.seconds.Seconds())/openCallSeconds)
	ops := int(openRate * r.seconds.Seconds() / float64(calls))
	var p50s, p95s []float64
	var committed int
	var elapsed time.Duration
	for i := 0; i < calls; i++ {
		_, rep := openRun(r, "log-tcp-open", mix(r.seed, uint64(i)), ops, nil)
		if rep == nil {
			return nil
		}
		p50s = append(p50s, ms64(rep.P50))
		p95s = append(p95s, ms64(rep.P95))
		committed += rep.Ops
		elapsed += rep.Elapsed
	}
	r.put("latency_p50_ms", "ms", quantile(p50s, 0.5))
	r.put("latency_p95_ms", "ms", quantile(p95s, 0.5))
	r.put("throughput_per_s", "1/s", float64(committed)/elapsed.Seconds())
	return nil
}

// closedStats sums a series of closed-loop rounds.
type closedStats struct {
	ops    int             // ops committed in order
	rounds []time.Duration // wall time of each round
}

// rate is the throughput of the median round in ops/s.
func (st closedStats) rate() float64 {
	return closedRoundOps / (quantile(durationsMS(st.rounds), 0.5) / 1000)
}

// runClosed runs closed-loop rounds on the engine at n replicas until
// budget has passed (at least one round), checking each round's output.
func runClosed(r *run, what string, engine resilient.Engine, n int, seedBase uint64, budget time.Duration, reg *resilient.MetricsRegistry) closedStats {
	var st closedStats
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout(budget))
	defer cancel()
	end := time.Now().Add(budget)
	for round := 0; round == 0 || time.Now().Before(end); round++ {
		opts := closedOptions(engine, n, mix(seedBase, uint64(round)), reg)
		start := time.Now()
		rep, err := resilient.RunLogWorkload(ctx, opts)
		d := time.Since(start)
		failed := checkLog(r, what, opts, rep, err)
		r.count(opts.Ops, failed)
		st.ops += opts.Ops - failed
		st.rounds = append(st.rounds, d)
		if err != nil {
			break
		}
	}
	return st
}

// logClosed is the log-tcp-closed workload: closed-loop rounds of
// closedRoundOps ops back to back for the run's seconds. Its throughput is
// that of the median round, so a round slowed by host noise does not
// move it.
func logClosed(r *run) error {
	if err := r.setup(func(i int) error { return logWarmup(mix(r.seed, uint64(1000+i))) }); err != nil {
		return err
	}
	st := runClosed(r, "log-tcp-closed", resilient.EngineTCP, logN, r.seed, r.seconds, nil)
	rounds := durationsMS(st.rounds)
	r.put("latency_p50_ms", "ms", quantile(rounds, 0.50))
	r.put("latency_p95_ms", "ms", quantile(rounds, 0.95))
	r.put("throughput_per_s", "1/s", st.rate())
	return nil
}

// okFrac is the share of attempted work that completed correctly.
func okFrac(r *run) float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.attempted-r.failed) / float64(r.attempted)
}
