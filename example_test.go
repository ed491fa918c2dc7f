package fim_test

import (
	"fmt"
	"log"
	"strings"

	fim "repro"
)

// The classic market-basket example: mine itemsets bought together in at
// least two of nine receipts.
func ExampleMine() {
	db, err := fim.ReadFIMI("receipts", strings.NewReader(
		"1 2 5\n2 4\n2 3\n1 2 4\n1 3\n2 3\n1 3\n1 2 3 5\n1 2 3\n"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := fim.Mine(db, 2.0/9.0, fim.DefaultOptions(2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("frequent itemsets:", res.Len())
	for _, c := range res.Decoded()[:3] {
		fmt.Printf("%v appears %d times\n", c.Items, c.Support)
	}
	// Output:
	// frequent itemsets: 13
	// {1} appears 6 times
	// {1, 2} appears 4 times
	// {1, 2, 3} appears 2 times
}

// Association rules with confidence and lift, from a mined result.
func ExampleRules() {
	db, _ := fim.ReadFIMI("baskets", strings.NewReader(
		"1 2\n1 2\n1 2 3\n1 2\n3\n1 3\n2\n"))
	res, _ := fim.Mine(db, 0.25, fim.DefaultOptions(1))
	for _, r := range fim.Rules(res, 0.8) {
		d := fim.DecodeRule(res, r)
		fmt.Printf("%v => %v (%.0f%%)\n", d.Antecedent, d.Consequent, d.Confidence*100)
	}
	// Output:
	// {1} => {2} (80%)
	// {2} => {1} (80%)
}

// Replaying an instrumented run on the simulated Blacklight machine —
// the paper's scalability experiment in six lines.
func ExampleSimulateSpeedup() {
	db, _ := fim.Dataset("chess", 0.1)
	trace := &fim.Trace{}
	opt := fim.DefaultOptions(1)
	opt.Trace = trace
	if _, err := fim.Mine(db, 0.4, opt); err != nil {
		log.Fatal(err)
	}
	// The trace includes the first pass and the level-2 pair count,
	// whose 320 rows are five 64-row blocks: at most five of the 16
	// threads share them.
	speedups := fim.SimulateSpeedup(trace, []int{1, 16}, fim.Blacklight())
	fmt.Printf("1 thread: %.1fx, 16 threads: >%.0fx\n", speedups[0], speedups[1]-1)
	// Output:
	// 1 thread: 1.0x, 16 threads: >6x
}
