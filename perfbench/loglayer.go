package main

import (
	"math"
	"math/rand/v2"
	"time"

	"resilient"
)

// dueLast is when the open loop's last op falls due, counted from the start
// of the run. RunLogWorkload draws exponential inter-arrival gaps at Rate
// from a PCG stream seeded from LogOptions.Seed; this replays that stream,
// so it must change if the generator's seeding does.
func dueLast(opts resilient.LogWorkloadOptions) time.Duration {
	s := opts.Log.Seed ^ 0x9e3779b97f4a7c15
	rng := rand.New(rand.NewPCG(s, s^0x9e3779b97f4a7c15))
	var due time.Duration
	for i := 0; i < opts.Ops; i++ {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		due += time.Duration(-math.Log(u) / opts.Rate * float64(time.Second))
	}
	return due
}

// retries sums the transport's retry and drop counters in a snapshot.
func retries(c map[string]int64) int64 {
	return c["net.dial_retries"] + c["net.conn_evictions"] + c["net.mux_drops"] + c["net.flush_frame_drops"]
}

// roundsSeconds is the wall time of all the rounds.
func roundsSeconds(st closedStats) float64 {
	var total time.Duration
	for _, d := range st.rounds {
		total += d
	}
	return total.Seconds()
}

// logLayer measures the replicated log on traced runs of both log
// workloads, each with a metrics registry attached, and the closed loop
// untraced on EngineMem and at n=1. instanceMS is the median time of one
// instance run alone over TCP. It returns the tracing overhead of the
// named workload when that is a log workload.
func logLayer(r *run, budget time.Duration, name string, instanceMS float64) float64 {
	openOps := int(2 * openRate * budget.Seconds())
	openSeed := mix(r.seed, 2000)
	reg := resilient.NewMetricsRegistry()
	opts, rep := openRun(r, "log-tcp-open traced", openSeed, openOps, reg)
	var retried int64
	var tracedP50 time.Duration
	if rep != nil {
		snap := reg.Snapshot()
		c := snap.Counters
		tracedP50 = rep.P50
		r.put("log.ops_per_slot.open", "count", snap.Histograms["log.batch_ops"].Mean)
		r.put("log.slots_per_s.open", "1/s", float64(c["log.slots"])/rep.Elapsed.Seconds())
		r.put("netxport.frames_per_op.open", "count", float64(c["net.frames_sent"])/float64(rep.Ops))
		r.put("netxport.bytes_per_op.open", "B", float64(c["net.bytes_sent"])/float64(rep.Ops))
		r.put("log.outside_instance_ms", "ms", ms64(rep.P50)-instanceMS)
		r.put("log.gen_lag_ms", "ms", ms64(rep.Elapsed-dueLast(opts)-rep.P50))
		retried += retries(c)
	}

	closedSeed := mix(r.seed, 3000)
	reg = resilient.NewMetricsRegistry()
	st := runClosed(r, "log-tcp-closed traced", resilient.EngineTCP, logN, closedSeed, budget, reg)
	snap := reg.Snapshot()
	c := snap.Counters
	tracedRate := st.rate()
	r.put("log.ops_per_slot.closed", "count", snap.Histograms["log.batch_ops"].Mean)
	r.put("log.slots_per_s.closed", "1/s", float64(c["log.slots"])/roundsSeconds(st))
	r.put("netxport.frames_per_flush", "count", float64(c["net.frames_sent"])/float64(c["net.flushes"]))
	r.put("netxport.frames_per_op.closed", "count", float64(c["net.frames_sent"])/float64(st.ops))
	r.put("netxport.bytes_per_op.closed", "B", float64(c["net.bytes_sent"])/float64(st.ops))
	retried += retries(c)
	r.put("netxport.retries", "count", float64(retried))

	st = runClosed(r, "log-tcp-closed on mem", resilient.EngineMem, logN, closedSeed, budget, nil)
	r.put("log.mem_ops_per_s", "1/s", st.rate())
	st = runClosed(r, "log-tcp-closed at n=1", resilient.EngineTCP, 1, closedSeed, budget, nil)
	r.put("log.n1_ops_per_s", "1/s", st.rate())

	switch name {
	case "log-tcp-open":
		if _, rep := openRun(r, "log-tcp-open untraced", openSeed, openOps, nil); rep != nil && tracedP50 > 0 {
			return float64(tracedP50)/float64(rep.P50) - 1
		}
	case "log-tcp-closed":
		st = runClosed(r, "log-tcp-closed untraced", resilient.EngineTCP, logN, closedSeed, budget, nil)
		return st.rate()/tracedRate - 1
	}
	return 0
}
