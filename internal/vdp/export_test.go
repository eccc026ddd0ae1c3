package vdp

import "squirrel/internal/delta"

// PropagateNaive is the textbook rule of §5.2 applied verbatim: every
// operand, including other occurrences of the updated child, is read at
// whatever state the resolver currently reports, with no sequencing
// discipline for self-joins. When the caller also resolves every sibling
// to its OLD state while several children change in one transaction, this
// reproduces the missed ΔR'⋈ΔS' contribution of Example 6.1. It is the
// falsifiable baseline of TestNaivePropagationMissesCrossDelta.
func (v *VDP) PropagateNaive(node, child string, dc *delta.RelDelta, resolve Resolver) (*delta.RelDelta, error) {
	return v.propagate(node, child, dc, resolve, true)
}
