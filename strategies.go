package onesided

import (
	"fmt"

	"repro/internal/eval"
)

// Strategy is an evaluation method an Engine can plan a query with: it
// analyses the query against a program once and returns a reusable
// prepared form. The served set is closed — "onesided" (the paper's
// Theorem 3.4 planner + Fig. 9 schema, which also plans Section 5's
// multi-rule recursions by the persistent-column reduction), "magic"
// (Magic Sets), "seminaive" (materialize then select) and "edb" (indexed
// base-relation lookup) — and every prepared plan of every one of them
// builds a maintained evaluation.
type Strategy = eval.Strategy

// PreparedStrategy is the reusable plan a Strategy produces. A plan
// prepared from a skeleton query carries unbound constant slots;
// BindArgs instantiates them (see the eval package for the contract).
type PreparedStrategy = eval.PreparedStrategy

// AdornedQuery is the planning input a Strategy receives: the query
// atom (ground, or a skeleton with slot placeholders at bound columns)
// plus its adornment.
type AdornedQuery = eval.AdornedQuery

// servedStrategies is the strategy table, in name order.
var servedStrategies = []Strategy{
	eval.EDBLookup(),
	eval.Magic(),
	eval.OneSided(),
	eval.Materialize(),
}

// StrategyNames returns the served strategy names, sorted.
func StrategyNames() []string {
	names := make([]string, len(servedStrategies))
	for i, s := range servedStrategies {
		names[i] = s.Name()
	}
	return names
}

// defaultStrategyNames is the auto-selection chain.
var defaultStrategyNames = []string{
	eval.StrategyOneSided,
	eval.StrategyMagic,
	eval.StrategyEDB,
}

// resolveStrategies maps a chain of names onto the strategy table.
func resolveStrategies(names []string) ([]Strategy, error) {
	if len(names) == 0 {
		names = defaultStrategyNames
	}
	byName := make(map[string]Strategy)
	for _, s := range servedStrategies {
		byName[s.Name()] = s
	}
	out := make([]Strategy, 0, len(names))
	for _, n := range names {
		s, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("onesided: unknown strategy %q (have %v)", n, StrategyNames())
		}
		out = append(out, s)
	}
	return out, nil
}
