package srac

// Clause coverage: one prefix evaluation's outcome at EVERY node of
// the constraint tree, plus which node the overall verdict is
// attributed to. Aggregated over traffic (core/coverage.go) this
// answers "which clauses of the policy ever decide anything" — dead
// clauses are candidates for tightening or deletion, and a clause
// that is never decisive cannot be blamed for any denial.
//
// The per-node outcomes come from the prefix walk's Sink (walk.go),
// so coverage, cost and the verdict are one evaluation. The helpers
// here address nodes by path.

// WalkPaths visits every node of the constraint tree with its
// coverage path, pre-order. Aggregators use it to pre-seed cells so
// clauses that never get evaluated still show up (as dead).
func WalkPaths(c Constraint, fn func(path string, c Constraint)) {
	walkPaths(c, "", fn)
}

func walkPaths(c Constraint, path string, fn func(string, Constraint)) {
	fn(path, c)
	switch x := c.(type) {
	case And:
		walkPaths(x.Left, path+"l", fn)
		walkPaths(x.Right, path+"r", fn)
	case Or:
		walkPaths(x.Left, path+"l", fn)
		walkPaths(x.Right, path+"r", fn)
	case Not:
		walkPaths(x.C, path+"n", fn)
	}
}

// SubclauseAt resolves a coverage path against a constraint tree,
// returning the subformula the path addresses (false when the path
// does not exist in this tree — a stale path from another policy).
func SubclauseAt(c Constraint, path string) (Constraint, bool) {
	for i := 0; i < len(path); i++ {
		switch x := c.(type) {
		case And:
			switch path[i] {
			case 'l':
				c = x.Left
			case 'r':
				c = x.Right
			default:
				return nil, false
			}
		case Or:
			switch path[i] {
			case 'l':
				c = x.Left
			case 'r':
				c = x.Right
			default:
				return nil, false
			}
		case Not:
			if path[i] != 'n' {
				return nil, false
			}
			c = x.C
		default:
			return nil, false
		}
	}
	return c, true
}
