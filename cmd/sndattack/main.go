// Command sndattack demonstrates the attack constructions behind the
// paper's theory, step by step:
//
//   - "substitution": the Theorem 2 generic attack that defeats any
//     localized topology-only validation function;
//   - "clique": the clone-clique attack that breaks the paper's own
//     protocol once more than t co-located nodes are compromised;
//   - "grace": what happens when the deployment-time trust window is
//     violated and the attacker steals the master key K.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"snd/internal/adversary"
	"snd/internal/core"
	"snd/internal/crypto"
	"snd/internal/deploy"
	"snd/internal/geometry"
	"snd/internal/nodeid"
	"snd/internal/sim"
	"snd/internal/topology"
	"snd/internal/verify"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sndattack:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("sndattack", flag.ContinueOnError)
	var (
		attack = fs.String("attack", "substitution", "substitution|clique|grace")
		seed   = fs.Int64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *attack {
	case "substitution":
		return substitution(w, *seed)
	case "clique":
		return clique(w, *seed)
	case "grace":
		return grace(w, *seed)
	default:
		return fmt.Errorf("unknown attack %q", *attack)
	}
}

// substitution walks through the Theorem 2 attack against the
// topology-only common-neighbor rule.
func substitution(w io.Writer, seed int64) error {
	const (
		threshold = 4
		rng50     = 25.0
	)
	fmt.Fprintln(w, "== Theorem 2 substitution attack vs topology-only validation ==")
	l := deploy.NewLayout(geometry.NewField(100, 100))
	l.DeploySampled(deploy.Uniform{}, 300, rand.New(rand.NewSource(seed)), 0)
	tent := verify.TentativeGraph(l, verify.Oracle{}, rng50)

	victim, target := twoFarApart(l)
	fmt.Fprintf(w, "compromised node: %v at %v\n", victim.Node, victim.Origin)
	fmt.Fprintf(w, "benign target:    %v at %v (%.0f m away)\n",
		target.Node, target.Origin, victim.Origin.Dist(target.Origin))

	rule := topology.CommonNeighborRule{Threshold: threshold}
	fmt.Fprintf(w, "before attack: F(target, victim) = %v\n", rule.Validate(target.Node, victim.Node, tent))

	att := adversary.New(seed)
	att.MarkCompromised(victim.Node)
	forged, err := att.ForgeSubstitution(tent, rule, target.Node, victim.Node)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "attacker forges %d tentative relations (all involving the compromised node):\n", len(forged))
	for _, p := range forged {
		fmt.Fprintf(w, "  %v\n", p)
	}
	tent = adversary.InjectRelations(tent, forged)
	fmt.Fprintf(w, "after attack:  F(target, victim) = %v — d-safety broken at %.0f m\n",
		rule.Validate(target.Node, victim.Node, tent), victim.Origin.Dist(target.Origin))
	fmt.Fprintln(w, "\nThe paper's protocol is immune: the forged neighbor list cannot be")
	fmt.Fprintln(w, "committed without the (erased) master key K, so the binding record")
	fmt.Fprintln(w, "check rejects it (run with -attack clique to see what DOES break it).")
	return nil
}

// clique runs the clone-clique attack against the real protocol.
func clique(w io.Writer, seed int64) error {
	const threshold = 4
	fmt.Fprintln(w, "== Clone-clique attack vs the paper's protocol (k > t) ==")
	s, err := sim.New(sim.Params{Nodes: 300, Range: 20, Threshold: threshold, Seed: seed})
	if err != nil {
		return err
	}
	defer s.Close()
	for _, k := range []int{threshold + 1, threshold + 2} {
		run, err := sim.New(sim.Params{Nodes: 300, Range: 20, Threshold: threshold, Seed: seed})
		if err != nil {
			return err
		}
		defer run.Close()
		ids, target, err := run.CloneCliqueAttack(k, geometry.Point{})
		if err != nil {
			return err
		}
		staging := geometry.Rect{
			Min: geometry.Point{X: target.X - 15, Y: target.Y - 15},
			Max: geometry.Point{X: target.X + 15, Y: target.Y + 15},
		}
		if err := run.DeployRoundAt(30, deploy.Within{Region: staging}); err != nil {
			return err
		}
		reports := run.AuditSafety(2 * run.Params().Range)
		fmt.Fprintf(w, "\nk = %d (t = %d): compromised %v, replicas at %v\n", k, threshold, ids, target)
		fmt.Fprintf(w, "  violations: %d of %d; worst: %v\n",
			core.Violations(reports), len(reports), core.WorstCase(reports))
	}
	_ = s
	fmt.Fprintln(w, "\nk ≤ t+1 is contained; k ≥ t+2 escapes — the threshold guarantee is tight.")
	return nil
}

// grace shows the consequence of violating the deployment trust window.
func grace(w io.Writer, seed int64) error {
	fmt.Fprintln(w, "== Grace-window violation: stealing K before erasure ==")
	master, err := crypto.NewMasterKey(nil)
	if err != nil {
		return err
	}
	victim, err := core.NewNode(1, master, core.Config{Threshold: 2})
	if err != nil {
		return err
	}
	if err := victim.BeginDiscovery(nodeid.NewSet(2, 3)); err != nil {
		return err
	}
	att := adversary.New(seed)
	got := att.Capture(victim)
	fmt.Fprintf(w, "attacker compromises node 1 during its discovery window: live K captured = %v\n", got)

	stolen := victim.CompromiseMaster()
	forgedNeighbors := nodeid.NewSet(10, 11, 12)
	c, err := stolen.BindingCommitment(1, 0, forgedNeighbors)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "attacker forges a binding record for any neighborhood: C = %v\n", c)
	fmt.Fprintln(w, "every validation everywhere now accepts it — the scheme is void.")
	fmt.Fprintln(w, "\nAfter erasure the same capture yields nothing:")
	if _, err := victim.FinishDiscovery(); err != nil {
		return err
	}
	att2 := adversary.New(seed)
	got2 := att2.Capture(victim)
	fmt.Fprintf(w, "post-erasure capture: live K captured = %v\n", got2)
	return nil
}

func twoFarApart(l *deploy.Layout) (a, b *deploy.Device) {
	best := -1.0
	devs := l.Devices()
	for i, x := range devs {
		for _, y := range devs[i+1:] {
			if d := x.Origin.Dist2(y.Origin); d > best {
				best, a, b = d, x, y
			}
		}
	}
	return a, b
}
