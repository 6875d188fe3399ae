package core

import (
	"fmt"

	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/topology"
)

// SafetyReport measures one compromised node against the d-safety property
// (Definition 6): there must exist a circle of radius d containing every
// benign node that accepted the compromised node (or any of its replicas)
// as a functional neighbor. Theorem 3's proof gives the stronger centered
// form: every such benign accepter lies within 2R of the compromised
// node's original deployment point.
type SafetyReport struct {
	// Node is the compromised logical identity.
	Node nodeid.ID
	// BenignAccepters is how many benign nodes hold a functional relation
	// to the compromised node.
	BenignAccepters int
	// EnclosingRadius is the smallest radius of any circle containing the
	// accepters' original deployment points — the exact quantity of
	// Definition 6 (0 with fewer than two accepters).
	EnclosingRadius float64
	// Reach is the largest distance from the compromised node's original
	// deployment point to an accepter's original deployment point — the
	// quantity Theorem 3 bounds by 2R (and Theorem 4 by (m+1)·R).
	Reach float64
	// Bound is the guarantee being audited (2R, or (m+1)R under updates).
	Bound float64
	// Violated reports EnclosingRadius > Bound: no circle of radius Bound
	// contains all fooled benign nodes, so the d-safety property fails.
	Violated bool
}

// String renders the report for experiment output.
func (r SafetyReport) String() string {
	status := "ok"
	if r.Violated {
		status = "VIOLATED"
	}
	return fmt.Sprintf("%v: accepters=%d enclosingR=%.1fm reach=%.1fm bound=%.1fm %s",
		r.Node, r.BenignAccepters, r.EnclosingRadius, r.Reach, r.Bound, status)
}

// AuditSafety evaluates the d-safety property over a finished run: for each
// compromised node, it collects the benign nodes whose functional relation
// set includes it (edges v → u in the functional topology) and checks that
// a circle of the given radius can cover them all.
func AuditSafety(l *deploy.Layout, functional *topology.Graph, compromised nodeid.Set, bound float64) []SafetyReport {
	reports := make([]SafetyReport, 0, compromised.Len())
	for _, c := range compromised.Sorted() {
		// Sorted order matters: EnclosingCircle's result can differ in the
		// last ulp with input order, and the audit must be reproducible.
		// ForEachIn visits accepters in ascending ID order.
		var pts []geometry.Point
		functional.ForEachIn(c, func(v nodeid.ID) {
			if compromised.Contains(v) {
				return
			}
			if primary := l.Primary(v); primary != nil {
				pts = append(pts, primary.Origin)
			}
		})
		r := SafetyReport{
			Node:            c,
			BenignAccepters: len(pts),
			Bound:           bound,
		}
		r.EnclosingRadius = geometry.EnclosingCircle(pts).Radius
		if origin := l.Primary(c); origin != nil {
			for _, p := range pts {
				if d := origin.Origin.Dist(p); d > r.Reach {
					r.Reach = d
				}
			}
		}
		r.Violated = r.EnclosingRadius > bound
		reports = append(reports, r)
	}
	return reports
}

// WorstCase returns the report with the largest enclosing radius, or a
// zero report for an empty audit.
func WorstCase(reports []SafetyReport) SafetyReport {
	var worst SafetyReport
	for _, r := range reports {
		if r.EnclosingRadius > worst.EnclosingRadius {
			worst = r
		}
	}
	return worst
}

// Violations counts the reports that breach the bound.
func Violations(reports []SafetyReport) int {
	n := 0
	for _, r := range reports {
		if r.Violated {
			n++
		}
	}
	return n
}
