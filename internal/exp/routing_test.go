package exp

import (
	"context"
	"strings"
	"testing"
)

func TestRoutingAttackImpact(t *testing.T) {
	t.Parallel()
	res, err := planRouting(RoutingParams{Trials: 2, Pairs: 80, Seed: 41}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	tentative, functional := res.Rows[0], res.Rows[1]
	if tentative.Table == functional.Table {
		t.Fatal("duplicate rows")
	}
	// The replicated blackhole attracts strictly more traffic over the
	// unvalidated topology: the compromised ID sits in neighbor tables
	// near all four corners instead of only near its real home.
	if tentative.Blackholed <= functional.Blackholed {
		t.Errorf("blackholed: tentative %v vs functional %v — validation had no effect",
			tentative.Blackholed, functional.Blackholed)
	}
	// Both topologies still deliver most non-intercepted packets.
	if functional.Delivered < 0.6 {
		t.Errorf("functional delivery %v implausibly low", functional.Delivered)
	}
	// Probabilities sum to 1 per row.
	for _, row := range res.Rows {
		sum := row.Delivered + row.Blackholed + row.Lost
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: outcome fractions sum to %v", row.Table, sum)
		}
	}
	if out := res.Render(); !strings.Contains(out, "GPSR") {
		t.Error("render missing title")
	}
}
