package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"resilient"
)

// zooCase is one configuration of the sim-zoo mix, each at its protocol's
// resilience bound with split inputs.
type zooCase struct {
	// name is the protocol's metric name.
	name string
	p    resilient.Protocol
	n, k int
	// adversaries adds one equivocator and one balancer.
	adversaries bool
}

// zoo is the sim-zoo mix, run round-robin.
var zoo = []zooCase{
	{name: "failstop", p: resilient.ProtocolFailStop, n: 21, k: 10},
	{name: "malicious", p: resilient.ProtocolMalicious, n: 13, k: 4, adversaries: true},
	{name: "benor-shared", p: resilient.ProtocolBenOrShared, n: 15, k: 7},
}

// zooInstance is one simulated consensus instance: its case, inputs,
// adversaries and simulator seed, all derived from the workload seed.
type zooInstance struct {
	c      *zooCase
	inputs []resilient.Value
	adv    map[resilient.ID]resilient.Strategy
	seed   uint64
}

// newZooInstance builds instance i of the mix under the workload seed. The
// inputs are split, floor(n/2) zeros and the rest ones, over a seeded
// permutation of the processes; the adversaries, when the case has them,
// are one process from each half.
func newZooInstance(seed uint64, i int) zooInstance {
	c := &zoo[i%len(zoo)]
	s := mix(seed, uint64(i))
	rng := rand.New(rand.NewPCG(s, 0x7a6f6f))
	perm := rng.Perm(c.n)
	inputs := make([]resilient.Value, c.n)
	for j, p := range perm {
		if 2*j >= c.n {
			inputs[p] = 1
		}
	}
	inst := zooInstance{c: c, inputs: inputs, seed: s}
	if c.adversaries {
		inst.adv = map[resilient.ID]resilient.Strategy{
			resilient.ID(perm[0]):     resilient.StrategyEquivocator,
			resilient.ID(perm[c.n-1]): resilient.StrategyBalancer,
		}
	}
	return inst
}

// simulate runs the instance on the simulator, traced into buf when buf is
// non-nil.
func (z zooInstance) simulate(buf *resilient.TraceBuffer) (*resilient.Result, error) {
	opts := resilient.SimOptions{Seed: z.seed, Adversaries: z.adv}
	if buf != nil {
		opts.Trace = buf
	}
	return resilient.Simulate(z.c.p, z.c.n, z.c.k, z.inputs, opts)
}

// simCounts are the exact counts of one simulated instance; the traced run
// must reproduce them for the same seed.
type simCounts struct {
	Messages, Events, Decided, PhaseSum int
	LastPhase                           resilient.Phase
	Value                               resilient.Value
}

func countsOf(res *resilient.Result) simCounts {
	c := simCounts{Messages: res.MessagesSent, Events: res.Events, Decided: len(res.Decisions), Value: res.Value}
	for _, ph := range res.DecisionPhase {
		c.PhaseSum += int(ph)
		if ph > c.LastPhase {
			c.LastPhase = ph
		}
	}
	return c
}

// checkSim checks one instance's result: every correct process decided and
// all agree. Split inputs make either value valid.
func checkSim(r *run, i int, res *resilient.Result, err error) bool {
	switch {
	case err != nil:
		r.problem("sim-zoo instance %d: %v", i, err)
	case !res.AllDecided || !res.Agreement:
		r.problem("sim-zoo instance %d (%s): decided=%v agreement=%v stalled=%v",
			i, zoo[i%len(zoo)].name, res.AllDecided, res.Agreement, res.Stalled)
	default:
		return true
	}
	return false
}

// zooRun is a series of untraced instances 0..len(counts)-1.
type zooRun struct {
	counts []simCounts
	lats   []time.Duration
	// ends holds when each instance finished, from the start of the run.
	ends    []time.Duration
	elapsed time.Duration
	ok      int
	// events and wall sum Result.Events and Result.WallClock.
	events int
	wall   time.Duration
}

// runZoo simulates instances 0, 1, ... untraced until budget has passed, or
// exactly limit instances when limit > 0.
func runZoo(r *run, seed uint64, budget time.Duration, limit int) zooRun {
	var z zooRun
	start := time.Now()
	end := start.Add(budget)
	for i := 0; ; i++ {
		// Unbounded runs end on a whole round of the mix, so every case
		// weighs the same in the figures.
		if limit > 0 && i == limit || limit == 0 && i > 0 && i%len(zoo) == 0 && !time.Now().Before(end) {
			break
		}
		inst := newZooInstance(seed, i)
		t0 := time.Now()
		res, err := inst.simulate(nil)
		z.lats = append(z.lats, time.Since(t0))
		z.ends = append(z.ends, time.Since(start))
		if checkSim(r, i, res, err) {
			z.ok++
		}
		if err == nil {
			z.counts = append(z.counts, countsOf(res))
			z.events += res.Events
			z.wall += res.WallClock
		} else {
			z.counts = append(z.counts, simCounts{})
		}
	}
	z.elapsed = time.Since(start)
	r.count(len(z.lats), len(z.lats)-z.ok)
	return z
}

// zooSlice is how long one slice of a sim-zoo run lasts at least. The
// run's figures are medians over its slices, so a burst of host noise
// moves one slice, not the run.
const zooSlice = time.Second

// slices cuts the run into consecutive slices of whole mix rounds lasting
// at least zooSlice each (the last may be shorter and is dropped unless it
// is the only one) and returns each slice's instances per second and
// latency quantiles in ms.
func (z zooRun) slices() (rates, p50s, p95s []float64) {
	from, fromEnd := 0, time.Duration(0)
	for i := len(zoo); i <= len(z.lats); i += len(zoo) {
		if z.ends[i-1]-fromEnd < zooSlice && !(i == len(z.lats) && len(rates) == 0) {
			continue
		}
		lats := durationsMS(z.lats[from:i])
		rates = append(rates, float64(i-from)/(z.ends[i-1]-fromEnd).Seconds())
		p50s = append(p50s, quantile(lats, 0.50))
		p95s = append(p95s, quantile(lats, 0.95))
		from, fromEnd = i, z.ends[i-1]
	}
	return rates, p50s, p95s
}

// verifyZoo replays instance 0 of each case with tracing on, outside the
// timed region: the trace must pass resilient.Verify with no violations,
// and tracing must not change the execution's counts.
func verifyZoo(r *run, seed uint64, untraced []simCounts) {
	for i := range zoo {
		inst := newZooInstance(seed, i)
		buf := resilient.NewTraceBuffer(0)
		res, err := inst.simulate(buf)
		if !checkSim(r, i, res, err) {
			continue
		}
		if vs := resilient.Verify(inst.c.p, inst.c.n, inst.c.k, inst.inputs, inst.adv, buf, res); len(vs) > 0 {
			r.problem("sim-zoo %s replay: %d violations, first %v", inst.c.name, len(vs), vs[0])
		}
		if i < len(untraced) && countsOf(res) != untraced[i] {
			r.problem("sim-zoo %s replay: traced counts %+v differ from untraced %+v", inst.c.name, countsOf(res), untraced[i])
		}
	}
}

// simZoo is the sim-zoo workload: the mix, instance after instance, for
// the run's seconds.
func simZoo(r *run) error {
	err := r.setup(func(i int) error {
		for j := range zoo {
			if _, err := newZooInstance(mix(r.seed, uint64(1000+i)), j).simulate(nil); err != nil {
				return fmt.Errorf("%s: %w", zoo[j].name, err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	z := runZoo(r, r.seed, r.seconds, 0)
	rates, p50s, p95s := z.slices()
	r.put("latency_p50_ms", "ms", quantile(p50s, 0.5))
	r.put("latency_p95_ms", "ms", quantile(p95s, 0.5))
	r.put("throughput_per_s", "1/s", quantile(rates, 0.5))
	verifyZoo(r, r.seed, z.counts)
	return nil
}
