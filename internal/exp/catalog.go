package exp

// init registers every experiment of the reproduction. Registration order
// is the order `sndfig -all` runs them; the catalog and -list views sort
// by name. To add an experiment: write a params struct (with
// applyDefaults) and a plan returning its Sweep (one trial function, one
// reducer), and register the plan here — all three binaries pick it up.
func init() {
	Register("fig3", "Figure 3: validated-neighbor fraction vs threshold t, theory and simulation", planFig3)
	Register("fig4", "Figure 4: validated-neighbor fraction vs deployment density for t in {10,30,50}", planFig4)
	Register("safety", "Theorem 3 audit (E3): 2R-safety with at most t compromised nodes replicated at the corners", planSafety)
	Register("breakdown", "Threshold breakdown (E4): clone-clique attack vs clique size, guarantee tight at k = t+2", planBreakdown)
	Register("impossibility", "Theorems 1-2 (E5): substitution attack beats topology-only validation, not the protocol", planImpossibility)
	Register("overhead", "Section 4.3 (E7): per-node message/byte/hash/storage overhead vs network size", planOverheadSweep)
	Register("compare", "Section 4.5 (E8): replication-attack defense and overhead vs Parno et al. baselines", planCompare)
	Register("update", "Update extension (E9): aging-network accuracy and the (m+1)R bound of Theorem 4", planUpdate)
	Register("hostile", "Section 4.4.2 (E10): forged-traffic flood from a replica must not move benign accuracy", planHostile)
	Register("routing", "Introduction, quantified (E11): GPSR blackhole impact of a replication attack", planRouting)
	Register("aggregation", "Introduction, quantified (E14): cluster-aggregation error under a replication attack", planAggregation)
	Register("isolation", "Section 3 trade-off (E12): functional-topology partitions and isolation vs threshold t", planIsolation)
	Register("noise", "Ablation: RTT direct-verifier Gaussian noise vs protocol accuracy and rejected records", planVerifierNoise)
	Register("scheme", "Ablation: Eschenauer-Gligor key ring size vs key coverage and protocol accuracy", planSchemeAblation)
	Register("engines", "Ablation: deterministic engine vs goroutine-per-node engine over one deployment", planEngines)
	Register("scale", "Scale (E1 at n=10^6): sampled validated-neighbor fraction vs threshold on the CSR topology", planScale)
}
