package algebra

// SubstAttrs returns a copy of e with attribute references renamed
// according to mapping; attributes absent from the mapping are unchanged.
// Used when pushing conditions through the positional renames of union and
// difference branches in a VDP.
func SubstAttrs(e Expr, mapping map[string]string) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case Attr:
		if to, ok := mapping[x.Name]; ok {
			return Attr{Name: to}
		}
		return x
	case Const:
		return x
	case Arith:
		return Arith{Op: x.Op, L: SubstAttrs(x.L, mapping), R: SubstAttrs(x.R, mapping)}
	case Cmp:
		return Cmp{Op: x.Op, L: SubstAttrs(x.L, mapping), R: SubstAttrs(x.R, mapping)}
	case And:
		terms := make([]Expr, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = SubstAttrs(t, mapping)
		}
		return And{Terms: terms}
	case Or:
		terms := make([]Expr, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = SubstAttrs(t, mapping)
		}
		return Or{Terms: terms}
	case Not:
		return Not{Term: SubstAttrs(x.Term, mapping)}
	case In:
		if to, ok := mapping[x.Attr]; ok {
			return In{Attr: to, Values: x.Values}
		}
		return x
	}
	return e
}

// ConjunctsOver partitions predicate e (viewed as a conjunction) into the
// conjuncts whose attributes all lie within avail, and the rest. Used to
// push selection conditions toward source databases.
func ConjunctsOver(e Expr, avail map[string]bool) (pushable, residual Expr) {
	return splitEvaluable(e, func(attrs map[string]bool) bool {
		for attr := range attrs {
			if !avail[attr] {
				return false
			}
		}
		return true
	})
}
