package exp

import (
	"context"
	"strings"
	"testing"
)

func TestAggregationAttackImpact(t *testing.T) {
	t.Parallel()
	res, err := planAggregation(AggregationParams{Trials: 3, Seed: 81}).run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	tentative, functional := res.Rows[0], res.Rows[1]
	// The replicated low ID merges far regions into one cluster over the
	// tentative topology: its worst span approaches the field diagonal,
	// while the validated topology keeps clusters within ~2R.
	if tentative.WorstSpan <= functional.WorstSpan {
		t.Errorf("span: tentative %v vs functional %v — no merging observed",
			tentative.WorstSpan, functional.WorstSpan)
	}
	// Theorem 3 caps the functional span: the compromised head's benign
	// accepters fit in a circle of radius 2R, so members are ≤ 4R apart.
	if functional.WorstSpan > 4*25+5 {
		t.Errorf("functional cluster span %v exceeds the 4R bound", functional.WorstSpan)
	}
	// Over the tentative topology the replica-merged cluster spans the
	// field, far past what any containment bound would allow.
	if tentative.WorstSpan < 110 {
		t.Errorf("tentative cluster span %v; expected field-scale merging", tentative.WorstSpan)
	}
	// Aggregation error follows the same ordering.
	if tentative.MaxError <= functional.MaxError {
		t.Errorf("max error: tentative %v vs functional %v", tentative.MaxError, functional.MaxError)
	}
	if tentative.MeanError <= functional.MeanError {
		t.Errorf("mean error: tentative %v vs functional %v", tentative.MeanError, functional.MeanError)
	}
	if out := res.Render(); !strings.Contains(out, "aggregation") {
		t.Error("render missing title")
	}
}
