package main

import (
	"fmt"
	"time"

	"resilient"
	"resilient/internal/byzantine"
	"resilient/internal/coin"
	"resilient/internal/core"
	"resilient/internal/msg"
	"resilient/internal/proto"
	"resilient/internal/runtime"
)

// stepTimer accumulates the OnMessage wall times of one protocol's
// machines. It is used from one goroutine: the simulator's event loop.
type stepTimer struct {
	total   time.Duration
	steps   int
	samples []float64 // ns of every sampleEvery-th step
}

// sampleEvery thins the kept step samples so a long traced run stays small
// in memory; the total covers every step.
const sampleEvery = 8

func (t *stepTimer) observe(d time.Duration) {
	t.total += d
	if t.steps%sampleEvery == 0 {
		t.samples = append(t.samples, float64(d))
	}
	t.steps++
}

// wrap times m's OnMessage. The wrapper forwards core.ValueReporter when m
// has it, because the simulator resolves each machine's reporter at spawn
// and the balancer reads correct processes' values through it: without the
// forward the traced run would execute a different adversary.
func (t *stepTimer) wrap(m core.Machine) core.Machine {
	tm := &timedMachine{Machine: m, t: t}
	if vr, ok := m.(core.ValueReporter); ok {
		return &timedReporter{timedMachine: tm, vr: vr}
	}
	return tm
}

type timedMachine struct {
	core.Machine
	t *stepTimer
}

func (m *timedMachine) OnMessage(in msg.Message) []core.Outbound {
	start := time.Now()
	outs := m.Machine.OnMessage(in)
	m.t.observe(time.Since(start))
	return outs
}

type timedReporter struct {
	*timedMachine
	vr core.ValueReporter
}

func (m *timedReporter) CurrentValue() msg.Value { return m.vr.CurrentValue() }

// runTimed runs the instance on the simulator's event loop with every
// machine wrapped by t. The spawner builds what resilient.Simulate builds
// for the instance: the registry's honest machine with the protocol's
// default coin, wrapped in the adversary strategy for the Byzantine ids.
func (z zooInstance) runTimed(t *stepTimer) (*resilient.Result, error) {
	d, ok := proto.Lookup(z.c.p)
	if !ok {
		return nil, fmt.Errorf("protocol %v not registered", z.c.p)
	}
	scheme, err := d.ResolveCoin(coin.SchemeAuto)
	if err != nil {
		return nil, err
	}
	shared := coin.NewShared(z.seed)
	byz := make(map[msg.ID]bool, len(z.adv))
	for id := range z.adv {
		byz[id] = true
	}
	return runtime.Run(runtime.Config{
		N: z.c.n, K: z.c.k, Inputs: z.inputs, Byzantine: byz, Seed: z.seed,
		Spawn: func(ctx runtime.SpawnContext) (core.Machine, error) {
			deps := proto.Deps{Sink: ctx.Sink}
			switch scheme {
			case coin.SchemeLocal:
				deps.Coin = coin.NewLocal(ctx.RNG)
			case coin.SchemeShared:
				deps.Coin = shared
			}
			m, err := d.Spawn(ctx.Config, deps)
			if err != nil {
				return nil, err
			}
			switch strategy := z.adv[ctx.Config.Self]; strategy {
			case 0:
			case resilient.StrategyEquivocator:
				m = byzantine.NewEquivocator(m, ctx.Config.N)
			case resilient.StrategyBalancer:
				m = byzantine.NewBalancer(m, ctx.World)
			default:
				return nil, fmt.Errorf("strategy %v has no traced spawner", strategy)
			}
			return t.wrap(m), nil
		},
	})
}

// machineLayer measures the protocol machines and the simulator's event
// loop on the sim-zoo mix. It runs instances untraced for budget, then the
// same instances again with the step timer, and requires every traced
// instance to reproduce the untraced counts. It returns the tracing
// overhead: traced wall time over untraced, minus one.
func machineLayer(r *run, budget time.Duration) float64 {
	untraced := runZoo(r, r.seed, budget, 0)
	r.put("runtime.events_per_s", "1/s", float64(untraced.events)/untraced.wall.Seconds())

	timers := make([]stepTimer, len(zoo))
	var tracedWall time.Duration
	tracedEvents := 0
	start := time.Now()
	for i, want := range untraced.counts {
		res, err := newZooInstance(r.seed, i).runTimed(&timers[i%len(zoo)])
		if !checkSim(r, i, res, err) {
			r.count(1, 1)
			continue
		}
		if got := countsOf(res); got != want {
			r.count(1, 1)
			r.problem("sim-zoo instance %d: traced counts %+v differ from untraced %+v", i, got, want)
		} else {
			r.count(1, 0)
		}
		tracedWall += res.WallClock
		tracedEvents += res.Events
	}
	overhead := time.Since(start).Seconds()/untraced.elapsed.Seconds() - 1

	var stepTotal time.Duration
	for j, c := range zoo {
		stepTotal += timers[j].total
		msgs, phases, count := 0, 0, 0
		for i := j; i < len(untraced.counts); i += len(zoo) {
			msgs += untraced.counts[i].Messages
			phases += int(untraced.counts[i].LastPhase)
			count++
		}
		r.put("machine."+c.name+".step_ns", "ns", quantile(timers[j].samples, 0.5))
		r.put("machine."+c.name+".msgs_per_instance", "count", float64(msgs)/float64(count))
		r.put("machine."+c.name+".phases_mean", "count", float64(phases)/float64(count))
	}
	r.put("runtime.self_ns_per_event", "ns", float64(tracedWall-stepTotal)/float64(tracedEvents))

	if a, err := resilient.AnalyzeFailStop(zoo[0].n, zoo[0].k); err != nil {
		r.problem("markov failstop: %v", err)
	} else {
		r.put("markov.failstop.phases_expected", "count", a.FromBalanced)
	}
	if a, err := resilient.AnalyzeMalicious(zoo[1].n, zoo[1].k, true); err != nil {
		r.problem("markov malicious: %v", err)
	} else {
		r.put("markov.malicious.phases_expected", "count", a.FromBalanced)
	}
	return overhead
}
