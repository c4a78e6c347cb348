package resilient

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"resilient/internal/adversary"
	"resilient/internal/proto"
	"resilient/internal/runtime"
)

func unanimous(n int, v Value) []Value {
	inputs := make([]Value, n)
	for i := range inputs {
		inputs[i] = v
	}
	return inputs
}

// runParity executes one scenario on every engine in the matrix and checks
// the engine-independent outcome is identical: every correct process
// decides, all decisions agree, and -- because the inputs are unanimous --
// validity pins the decided value, so it must match across engines even
// though the schedules differ wildly.
func runParity(t *testing.T, sc Scenario, wantValue Value, wantDeciders int, wantCrashed []ID) {
	t.Helper()
	for _, engine := range []Engine{EngineSim, EngineMem, EngineTCP} {
		t.Run(engine.String(), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			out, err := RunScenario(ctx, engine, sc)
			if err != nil {
				t.Fatalf("%v: %v", engine, err)
			}
			if !out.AllDecided {
				t.Fatalf("%v: not all correct processes decided: %+v", engine, out.Decisions)
			}
			if !out.Agreement {
				t.Fatalf("%v: disagreement: %+v", engine, out.Decisions)
			}
			if out.Value != wantValue {
				t.Fatalf("%v: decided %d, want %d", engine, out.Value, wantValue)
			}
			if len(out.Decisions) != wantDeciders {
				t.Fatalf("%v: %d deciders, want %d", engine, len(out.Decisions), wantDeciders)
			}
			for id, v := range out.Decisions {
				if v != wantValue {
					t.Fatalf("%v: p%d decided %d, want %d", engine, id, v, wantValue)
				}
			}
			crashed := slices.Clone(out.Crashed)
			slices.Sort(crashed)
			if !slices.Equal(crashed, wantCrashed) {
				t.Fatalf("%v: crashed %v, want %v", engine, crashed, wantCrashed)
			}
		})
	}
}

// TestEngineParityFailStop runs one fail-stop scenario -- a mid-broadcast
// death and an initially-dead process, k faults in total -- on the
// simulator, the in-memory engine, and the TCP mesh.
func TestEngineParityFailStop(t *testing.T) {
	runParity(t, Scenario{
		Protocol: ProtocolFailStop,
		N:        7, K: 3,
		Inputs: unanimous(7, V1),
		Seed:   11,
		Crashes: map[ID]Crash{
			5: {Process: 5, Phase: 1, AfterSends: 3},
			6: {Process: 6, Phase: 0, AfterSends: 0},
		},
	}, V1, 5, []ID{5, 6})
}

// TestEngineParityMalicious runs one malicious scenario -- a constant liar
// plus a fail-stop crash, k faults in total -- on all three engines.
func TestEngineParityMalicious(t *testing.T) {
	runParity(t, Scenario{
		Protocol: ProtocolMalicious,
		N:        7, K: 2,
		Inputs: unanimous(7, V1),
		Seed:   5,
		Adversaries: map[ID]Strategy{
			5: StrategyLiar0,
		},
		Crashes: map[ID]Crash{
			6: {Process: 6, Phase: 0, AfterSends: 0},
		},
	}, V1, 5, []ID{6})
}

// TestEngineParityBenOrShared runs the shared-coin Ben-Or variant on all
// three engines. The shared coin derives flips from (run seed, phase)
// alone, so one read-only source serves every process concurrently -- the
// live engines exercise that concurrency for real.
func TestEngineParityBenOrShared(t *testing.T) {
	runParity(t, Scenario{
		Protocol: ProtocolBenOrShared,
		N:        7, K: 3,
		Inputs: unanimous(7, V1),
		Seed:   7,
	}, V1, 7, nil)
}

// TestEngineParityRegistry runs every registered protocol through the
// simulator and the in-memory engine at its own resilience bound,
// fault-free with unanimous inputs: all processes decide, they agree, and
// -- unless the protocol's checker skips validity -- the decision is the
// unanimous input. Directory-capable protocols run in their full-mesh
// fallback (no directory wired). Registering a protocol automatically
// enrolls it here.
func TestEngineParityRegistry(t *testing.T) {
	for _, p := range Protocols() {
		d, ok := proto.Lookup(p)
		if !ok {
			t.Fatalf("Protocols() returned unregistered %v", p)
		}
		sc := Scenario{
			Protocol: p,
			N:        7, K: p.MaxFaults(7),
			Inputs: unanimous(7, V1),
			Seed:   9,
		}
		for _, engine := range []Engine{EngineSim, EngineMem} {
			t.Run(fmt.Sprintf("%v/%v", p, engine), func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				out, err := RunScenario(ctx, engine, sc)
				if err != nil {
					t.Fatal(err)
				}
				if !out.AllDecided || !out.Agreement {
					t.Fatalf("allDecided=%v agreement=%v decisions=%+v",
						out.AllDecided, out.Agreement, out.Decisions)
				}
				if !d.SkipValidity && out.Value != V1 {
					t.Fatalf("decided %d, validity demands the unanimous input %d", out.Value, V1)
				}
			})
		}
	}
}

// crashPlanScenarios are fail-stop n=7, k=3 runs under a full
// crash-at-phase plan: one initially-dead process, one mid-broadcast
// death in phase 1, one death at the phase-2 boundary. The survivors are
// exactly n-k. The first plan is the one livenet's TestMemClusterCrashPlan
// runs on raw machines.
func crashPlanScenarios() []Scenario {
	return []Scenario{{
		Protocol: ProtocolFailStop,
		N:        7, K: 3,
		Inputs: mixed(7),
		Seed:   1,
		Crashes: map[ID]Crash{
			4: {Process: 4, Phase: 0, AfterSends: 0},
			5: {Process: 5, Phase: 1, AfterSends: 3},
			6: {Process: 6, Phase: 2, AfterSends: 0},
		},
	}, {
		Protocol: ProtocolFailStop,
		N:        7, K: 3,
		Inputs: []Value{0, 1, 0, 1, 0, 1, 0},
		Seed:   3,
		Crashes: map[ID]Crash{
			2: {Process: 2, Phase: 1, AfterSends: 2},
			4: {Process: 4, Phase: 2, AfterSends: 0},
			6: {Process: 6, Phase: 0, AfterSends: 0},
		},
	}}
}

// TestTCPCrashAtPhasePlan drives the crash-at-phase plans over real
// sockets. The n-k survivors, a strict majority, may decide and end the
// run before a late trigger fires, so only what holds on every schedule is
// asserted (see Outcome.Crashed): the survivors all decide and agree, the
// initially-dead process is always listed, Crashed is an ascending subset
// of the plan, and no listed process decides in a phase after its crash.
// TestSimCrashPlanTriggers pins the exact triggers.
func TestTCPCrashAtPhasePlan(t *testing.T) {
	for _, sc := range crashPlanScenarios() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		out, err := RunScenario(ctx, EngineTCP, sc)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllDecided || !out.Agreement {
			t.Fatalf("survivors failed to decide: %+v", out)
		}
		for id, c := range sc.Crashes {
			if c.Phase == 0 && c.AfterSends == 0 && !slices.Contains(out.Crashed, id) {
				t.Fatalf("crashed %v misses the initially-dead p%d", out.Crashed, id)
			}
		}
		for i, id := range out.Crashed {
			if _, planned := sc.Crashes[id]; !planned || (i > 0 && out.Crashed[i-1] >= id) {
				t.Fatalf("crashed %v is not an ascending subset of the plan", out.Crashed)
			}
		}
		survivors := 0
		for id, ph := range out.DecisionPhase {
			c, planned := sc.Crashes[id]
			if !planned {
				survivors++
				continue
			}
			if slices.Contains(out.Crashed, id) && ph > c.Phase {
				t.Fatalf("p%d decided in phase %d, after its phase-%d crash", id, ph, c.Phase)
			}
		}
		if survivors != sc.N-sc.K {
			t.Fatalf("%d survivor decisions, want %d: %v", survivors, sc.N-sc.K, out.Decisions)
		}
	}
}

// TestSimCrashPlanTriggers runs the same plans on the deterministic
// simulator and pins what the live tests cannot: for these seeds every
// trigger -- mid-broadcast in phase 1, at the phase-2 boundary -- fires
// before the survivors finish, so all k planned processes are listed and
// none of them decides.
func TestSimCrashPlanTriggers(t *testing.T) {
	for _, sc := range crashPlanScenarios() {
		out, err := RunScenario(context.Background(), EngineSim, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !out.AllDecided || !out.Agreement {
			t.Fatalf("survivors failed to decide: %+v", out)
		}
		var want []ID
		for id := range sc.Crashes {
			want = append(want, id)
		}
		slices.Sort(want)
		got := slices.Clone(out.Crashed)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("crashed %v, want %v", out.Crashed, want)
		}
		if len(out.Decisions) != sc.N-sc.K {
			t.Fatalf("%d deciders, want %d: %v", len(out.Decisions), sc.N-sc.K, out.Decisions)
		}
		for id := range sc.Crashes {
			if _, ok := out.Decisions[id]; ok {
				t.Fatalf("crash-planned p%d decided", id)
			}
		}
	}
}

// TestSpawnPathParity pins the one spawn path: for every registered
// protocol and coin scheme, the machines NewMachine builds from the
// documented per-process CoinSeed derivation are the machines a live run
// builds (liveMachines). Split inputs make the randomized protocols flip
// their coins, so both sets must draw identically -- same decisions, same
// message count, same event count under one simulator schedule.
func TestSpawnPathParity(t *testing.T) {
	const n, k, seed = 7, 1, 11
	inputs := mixed(n)
	for _, p := range Protocols() {
		coins := []CoinScheme{CoinAuto}
		if p.NeedsCoin() {
			coins = append(coins, CoinLocal, CoinShared)
		}
		for _, c := range coins {
			t.Run(fmt.Sprintf("%v/%v", p, c), func(t *testing.T) {
				live, err := liveMachines(Scenario{Protocol: p, N: n, K: k, Inputs: inputs, Seed: seed, Coin: c})
				if err != nil {
					t.Fatal(err)
				}
				scheme := c
				if scheme == CoinAuto {
					scheme = p.DefaultCoin()
				}
				direct := make([]Machine, n)
				for i := range direct {
					cfg := MachineConfig{N: n, K: k, Self: ID(i), Input: inputs[i], Coin: c, CoinSeed: seed}
					if scheme == CoinLocal {
						cfg.CoinSeed = seed ^ uint64(i+1)*0x9e3779b97f4a7c15
					}
					if direct[i], err = NewMachine(p, cfg); err != nil {
						t.Fatal(err)
					}
				}
				run := func(ms []Machine) *Result {
					res, err := runtime.Run(runtime.Config{
						N: n, K: k, Inputs: inputs, Seed: seed,
						Spawn: func(ctx runtime.SpawnContext) (Machine, error) { return ms[ctx.Config.Self], nil },
					})
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				a, b := run(direct), run(live)
				if !maps.Equal(a.Decisions, b.Decisions) || a.MessagesSent != b.MessagesSent || a.Events != b.Events {
					t.Fatalf("NewMachine: decisions=%v msgs=%d events=%d; liveMachines: decisions=%v msgs=%d events=%d",
						a.Decisions, a.MessagesSent, a.Events, b.Decisions, b.MessagesSent, b.Events)
				}
			})
		}
	}
}

// TestBalancerIsSimOnly: the omniscient balancer strategy needs the
// simulator's world view; live engines must reject it up front instead of
// crashing mid-run.
func TestBalancerIsSimOnly(t *testing.T) {
	ctx := context.Background()
	_, err := RunScenario(ctx, EngineMem, Scenario{
		Protocol: ProtocolMalicious,
		N:        7, K: 2,
		Inputs:      unanimous(7, V1),
		Adversaries: map[ID]Strategy{6: StrategyBalancer},
	})
	if err == nil {
		t.Fatal("balancer accepted on a live engine")
	}
	// The same scenario must still run on the simulator.
	if _, err := RunScenario(ctx, EngineSim, Scenario{
		Protocol: ProtocolMalicious,
		N:        7, K: 2,
		Inputs:      unanimous(7, V1),
		Adversaries: map[ID]Strategy{6: StrategyBalancer},
	}); err != nil {
		t.Fatalf("balancer rejected on the simulator: %v", err)
	}
}

// TestParseEngine pins the flag-facing engine names.
func TestParseEngine(t *testing.T) {
	for _, want := range []Engine{EngineSim, EngineMem, EngineJitter, EngineTCP} {
		got, err := ParseEngine(want.String())
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", want.String(), got, err)
		}
	}
	if _, err := ParseEngine("quantum"); err == nil {
		t.Error("unknown engine accepted")
	}
	if EngineSim.Live() {
		t.Error("sim reported live")
	}
	for _, e := range []Engine{EngineMem, EngineJitter, EngineTCP} {
		if !e.Live() {
			t.Errorf("%v not reported live", e)
		}
	}
}

// TestBridgeCoalitionEnablesBothSides is the Theorem 3 schedule shape as an
// end-to-end run: groups S = {0..3} and T = {2..6} overlap in a coalition
// {2, 3} that talks to both sides. Each side has at least n-k members, so
// with the coalition bridging them every process reaches its witness quorum
// and decides -- under a schedule where direct S-only/T-only traffic never
// flows.
func TestBridgeCoalitionEnablesBothSides(t *testing.T) {
	res, err := Simulate(ProtocolFailStop, 7, 3, unanimous(7, V1), SimOptions{
		Seed:       3,
		Policy:     PolicyFromScheduler(adversary.Bridge{GroupOf: adversary.Overlap(2, 4)}),
		MaxSimTime: 1e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDecided || !res.Agreement || res.Value != V1 {
		t.Fatalf("bridged run failed: allDecided=%v agreement=%v value=%d stalled=%v",
			res.AllDecided, res.Agreement, res.Value, res.Stalled)
	}
}

// TestPartitionStallsWhereBridgeDecides is the control for the bridge test:
// the same split without the coalition (a hard Halves(2) partition) leaves
// the small side short of its quorum, so the run cannot complete.
func TestPartitionStallsWhereBridgeDecides(t *testing.T) {
	res, err := Simulate(ProtocolFailStop, 7, 3, unanimous(7, V1), SimOptions{
		Seed:       3,
		Policy:     PolicyFromScheduler(adversary.Partition{GroupOf: adversary.Halves(2)}),
		MaxSimTime: 1e5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllDecided {
		t.Fatal("hard-partitioned run decided everywhere")
	}
	if res.Stalled != TimeHorizon {
		t.Fatalf("stalled = %v, want %v (cross traffic parked beyond the horizon)", res.Stalled, TimeHorizon)
	}
}

// TestPartitionPolicyDrainsInsteadOfHorizonChase: expressed as a link
// policy, the same partition drops cross traffic outright, so the simulator
// drains its queue and stops instead of chasing a 1e9-unit delivery
// horizon; the drops are accounted.
func TestPartitionPolicyDrainsInsteadOfHorizonChase(t *testing.T) {
	res, err := Simulate(ProtocolFailStop, 7, 3, unanimous(7, V1), SimOptions{
		Seed:   3,
		Policy: PartitionPolicy{GroupOf: HalvesPartition(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllDecided {
		t.Fatal("partition-policy run decided everywhere")
	}
	if res.Stalled != QueueDrained {
		t.Fatalf("stalled = %v, want %v", res.Stalled, QueueDrained)
	}
	if res.MessagesDropped == 0 {
		t.Fatal("no drops recorded under a partition policy")
	}
	// Dropped messages never enter the queue, so they can account for at
	// most the sent/delivered gap (the rest reached halted machines).
	if res.MessagesDropped > res.MessagesSent-res.MessagesDelivered {
		t.Fatalf("dropped %d exceeds sent %d - delivered %d",
			res.MessagesDropped, res.MessagesSent, res.MessagesDelivered)
	}
}

// TestScenarioSimMatchesSimulate: EngineSim through the scenario API is the
// same deterministic execution as calling Simulate directly.
func TestScenarioSimMatchesSimulate(t *testing.T) {
	sc := Scenario{
		Protocol: ProtocolFailStop,
		N:        7, K: 3,
		Inputs: []Value{0, 1, 0, 1, 0, 1, 0},
		Seed:   42,
	}
	out, err := RunScenario(context.Background(), EngineSim, sc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sc.Protocol, sc.N, sc.K, sc.Inputs, SimOptions{Seed: sc.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if out.Sim.SimTime != res.SimTime || out.Sim.MessagesSent != res.MessagesSent ||
		out.Value != res.Value || out.Sim.Events != res.Events {
		t.Fatalf("scenario sim diverged from Simulate: %+v vs %+v", out.Sim, res)
	}
}
