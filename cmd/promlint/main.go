// Command promlint checks a Prometheus text exposition read from stdin
// against the obs package's format rules: every sample must belong to a
// declared family (no unregistered names), families must not be declared
// twice, samples must not repeat, and histogram series must be coherent —
// ordered cumulative buckets ending in +Inf whose total agrees with
// _count, with both the _count and _sum series present and the _sum
// plausible (not NaN, zero when _count is zero). CI pipes a live
// sndserve's /v1/metrics through it, and also feeds it a deliberately
// incoherent histogram that must fail.
//
//	curl -s localhost:8080/v1/metrics | promlint
//
// Exit status is 0 when the exposition is clean, 1 when any rule fails
// or the input cannot be read (each problem is printed).
package main

import (
	"fmt"
	"os"

	"snd/internal/obs"
)

func main() {
	errs := obs.Lint(os.Stdin)
	for _, err := range errs {
		fmt.Fprintln(os.Stderr, "promlint:", err)
	}
	if len(errs) > 0 {
		fmt.Fprintf(os.Stderr, "promlint: %d problem(s)\n", len(errs))
		os.Exit(1)
	}
	fmt.Println("promlint: exposition clean")
}
