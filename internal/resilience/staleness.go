package resilience

import "squirrel/internal/clock"

// ComposeFreshness composes Theorem 7.2 staleness bounds across one
// federation hop (DESIGN.md §11). The theorem bounds, per source, how far
// behind a mediator's answer may lag that source's committed state. When
// a "source" is itself a mediator tier, its own answers lag the base
// sources by the tier's bound — so the upstream guarantee, restated in
// base-source coordinates, is the sum of the two hops:
//
//	f_composed[base] = f_upper[tier] + f_lower[base]
//
// upper is the upstream mediator's bound vector, keyed by its direct
// sources; lower maps each federated-tier source name to that tier's own
// bound vector, keyed by base sources. Components of upper with no lower
// entry are plain sources and pass through unchanged. When two tiers
// expose the same base source, the composed bound keeps the WORST (max)
// path: a bound must hold for every way the data can flow.
//
// The composition is associative, so deeper trees fold hop by hop:
// compose the leaves into their parents first, then the parents upward.
func ComposeFreshness(upper clock.Vector, lower map[string]clock.Vector) clock.Vector {
	out := make(clock.Vector, len(upper))
	keepWorst := func(src string, f clock.Time) {
		if cur, ok := out[src]; !ok || f > cur {
			out[src] = f
		}
	}
	for src, f := range upper {
		tier, federated := lower[src]
		if !federated {
			keepWorst(src, f)
			continue
		}
		for base, fb := range tier {
			keepWorst(base, f+fb)
		}
	}
	return out
}
