package eia_test

import (
	"fmt"
	"os"

	"infilter/internal/eia"
	"infilter/internal/netaddr"
)

// Example walks the Basic InFilter check: sources are expected at the peer
// AS their block was trained on; a spoofed source shows up at the wrong
// ingress. The Set is built first, then published by a Store, whose
// Snapshot serializes the state it checks against.
func Example() {
	set := eia.NewSet(eia.Config{})
	set.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	set.AddPrefix(2, netaddr.MustParsePrefix("70.0.0.0/11"))

	store := eia.NewStore(set)

	legit := netaddr.MustParseAddr("61.5.5.5")
	spoofed := netaddr.MustParseAddr("70.9.9.9")

	fmt.Println("61.5.5.5 at peer 1:", store.Check(1, legit))
	fmt.Println("70.9.9.9 at peer 1:", store.Check(1, spoofed))
	fmt.Println("9.9.9.9  at peer 1:", store.Check(1, netaddr.MustParseAddr("9.9.9.9")))
	store.Snapshot().WriteCheckpoint(os.Stdout)
	// Output:
	// 61.5.5.5 at peer 1: match
	// 70.9.9.9 at peer 1: wrong-peer
	// 9.9.9.9  at peer 1: unknown
	// # infilter-eia-checkpoint v2
	// 1 4 61.0.0.0/11
	// 2 4 70.0.0.0/11
}
