package core

import (
	"math"
	"testing"

	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/topology"
)

func TestAuditSafetyWithinBound(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(500, 100))
	a := l.Deploy(geometry.Point{X: 0, Y: 50}, 0)   // benign
	b := l.Deploy(geometry.Point{X: 60, Y: 50}, 0)  // benign
	c := l.Deploy(geometry.Point{X: 30, Y: 50}, 0)  // compromised
	d := l.Deploy(geometry.Point{X: 400, Y: 50}, 0) // benign, far away

	fb := topology.NewBuilder()
	fb.AddRelation(a.Node, c.Node) // a accepts c
	fb.AddRelation(b.Node, c.Node) // b accepts c
	fb.AddRelation(c.Node, a.Node) // c's own claims are ignored
	_ = d

	reports := AuditSafety(l, fb.Finalize(), nodeid.NewSet(c.Node), 100)
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	r := reports[0]
	if r.BenignAccepters != 2 {
		t.Errorf("accepters = %d, want 2", r.BenignAccepters)
	}
	// Accepters at x=0 and x=60: enclosing radius 30, reach 30 (origin at
	// x=30 is equidistant).
	if math.Abs(r.EnclosingRadius-30) > 1e-9 {
		t.Errorf("enclosing radius = %v, want 30", r.EnclosingRadius)
	}
	if math.Abs(r.Reach-30) > 1e-9 {
		t.Errorf("reach = %v, want 30", r.Reach)
	}
	if r.Violated {
		t.Error("within-bound case flagged as violation")
	}
}

func TestAuditSafetyDetectsViolation(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(500, 100))
	a := l.Deploy(geometry.Point{X: 0, Y: 50}, 0)
	b := l.Deploy(geometry.Point{X: 300, Y: 50}, 0)
	c := l.Deploy(geometry.Point{X: 150, Y: 50}, 0) // compromised

	fb := topology.NewBuilder()
	fb.AddRelation(a.Node, c.Node)
	fb.AddRelation(b.Node, c.Node)

	reports := AuditSafety(l, fb.Finalize(), nodeid.NewSet(c.Node), 100)
	// Accepters 300 m apart: no circle of radius 100 covers both.
	if !reports[0].Violated {
		t.Error("150 m enclosing radius within 100 m bound not flagged")
	}
	if math.Abs(reports[0].EnclosingRadius-150) > 1e-9 {
		t.Errorf("enclosing radius = %v, want 150", reports[0].EnclosingRadius)
	}
	if math.Abs(reports[0].Reach-150) > 1e-9 {
		t.Errorf("reach = %v, want 150", reports[0].Reach)
	}
	if got := Violations(reports); got != 1 {
		t.Errorf("Violations = %d", got)
	}
	if w := WorstCase(reports); w.Node != c.Node {
		t.Errorf("WorstCase = %+v", w)
	}
}

func TestAuditSafetyIgnoresCompromisedAccepters(t *testing.T) {
	// Colluding compromised nodes accepting each other do not count: the
	// d-safety property is about fooled *benign* nodes.
	l := deploy.NewLayout(geometry.NewField(500, 100))
	a := l.Deploy(geometry.Point{X: 0, Y: 50}, 0)
	b := l.Deploy(geometry.Point{X: 490, Y: 50}, 0)

	fb := topology.NewBuilder()
	fb.AddRelation(a.Node, b.Node)
	fb.AddRelation(b.Node, a.Node)

	compromised := nodeid.NewSet(a.Node, b.Node)
	reports := AuditSafety(l, fb.Finalize(), compromised, 100)
	for _, r := range reports {
		if r.BenignAccepters != 0 || r.Violated {
			t.Errorf("colluding pair counted: %+v", r)
		}
	}
}

func TestAuditSafetyUsesOriginNotCurrentPos(t *testing.T) {
	// The audit must use original deployment points of the accepters, not
	// their (possibly drifted) current positions. Simulate drift by
	// mutating Pos directly.
	l := deploy.NewLayout(geometry.NewField(500, 100))
	a := l.Deploy(geometry.Point{X: 0, Y: 50}, 0)
	b := l.Deploy(geometry.Point{X: 50, Y: 50}, 0)
	c := l.Deploy(geometry.Point{X: 25, Y: 50}, 0)
	l.Primary(a.Node).Pos = geometry.Point{X: 499, Y: 50} // drifted

	fb := topology.NewBuilder()
	fb.AddRelation(a.Node, c.Node)
	fb.AddRelation(b.Node, c.Node)

	reports := AuditSafety(l, fb.Finalize(), nodeid.NewSet(c.Node), 100)
	if reports[0].Violated {
		t.Error("audit used current position instead of origin")
	}
}

func TestAuditSafetySmallCases(t *testing.T) {
	l := deploy.NewLayout(geometry.NewField(100, 100))
	c := l.Deploy(geometry.Point{X: 50, Y: 50}, 0)
	fb := topology.NewBuilder()
	// Zero accepters.
	reports := AuditSafety(l, fb.Finalize(), nodeid.NewSet(c.Node), 10)
	if reports[0].EnclosingRadius != 0 || reports[0].Violated {
		t.Errorf("empty accepters report = %+v", reports[0])
	}
	// One accepter: enclosing radius zero, reach = distance to origin.
	a := l.Deploy(geometry.Point{X: 50, Y: 80}, 0)
	fb.AddRelation(a.Node, c.Node)
	reports = AuditSafety(l, fb.Finalize(), nodeid.NewSet(c.Node), 10)
	if reports[0].EnclosingRadius != 0 || reports[0].Violated {
		t.Errorf("single accepter report = %+v", reports[0])
	}
	if math.Abs(reports[0].Reach-30) > 1e-9 {
		t.Errorf("reach = %v, want 30", reports[0].Reach)
	}
	if got := reports[0].String(); got == "" {
		t.Error("empty String()")
	}
}
