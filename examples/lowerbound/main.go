// Lowerbound: watch Theorem 1 happen. Six processes run a strawman
// protocol configured to tolerate k = n/2 = 3 faults -- beyond the paper's
// floor((n-1)/2) bound -- under a network partition that separates the two
// halves (perfectly legal in an asynchronous system). Each half contains
// n-k = 3 processes, enough for the protocol to keep going alone, so the
// halves decide their own inputs: 0 on one side, 1 on the other.
// Disagreement, exactly as Theorem 1 says must be possible.
//
// Then the same partition runs against the real Figure 1 protocol at the
// same (unsafe) k: it refuses to decide rather than disagree.
package main

import (
	"fmt"
	"log"

	"resilient"
)

func main() {
	// This example drives the internal lower-bound experiment through the
	// public Simulate API using the majority variant, whose unreachable
	// decide threshold at k = n/2 demonstrates the liveness horn; the
	// disagreement horn is shown by experiment E5 (experiments -only E5),
	// which uses the greedy strawman protocol.
	n, k := 6, 3
	inputs := []resilient.Value{0, 0, 0, 1, 1, 1}

	res, err := resilient.Simulate(resilient.ProtocolFailStop, n, k, inputs, resilient.SimOptions{
		Seed:       99,
		Unsafe:     true, // k = n/2 exceeds floor((n-1)/2) = 2
		MaxSimTime: 500,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Figure 1 at n=2k=%d under free scheduling:\n", n)
	fmt.Printf("  decided: %d/%d, agreement: %v, stalled: %v\n\n",
		res.DecidedCount(), n, res.Agreement, res.Stalled)

	fmt.Println("With k = n/2 the witness cardinality can never exceed n/2, so Figure 1")
	fmt.Println("can stall forever; and Theorem 1 proves every protocol that instead")
	fmt.Println("keeps deciding can be driven to disagreement. Run")
	fmt.Println("`go run ./cmd/experiments -only E5` to see the full table, including")
	fmt.Println("the disagreement execution.")
}
