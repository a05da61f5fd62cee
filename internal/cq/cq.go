// Package cq models self-join-free conjunctive queries: their syntax
// (atoms over a relational vocabulary, head and existential variables,
// comparison predicates), a small datalog-style parser, and the structural
// analyses the dissociation algorithms need — hierarchy testing, connected
// components, separator variables, minimal cut-sets, and functional-
// dependency closures.
//
// Throughout, queries follow Section 2 of Gatterbauer & Suciu, "Approximate
// Lifted Inference with Probabilistic Databases" (VLDB 2015): a query
//
//	q(y) :- R1(x1), ..., Rm(xm)
//
// is self-join-free (all Ri distinct), y are the head variables, and all
// other variables are existentially quantified.
package cq

import (
	"fmt"
	"sort"
	"strings"
)

// Var is a query variable such as "x" or "y2".
type Var string

// Term is one argument position of an atom: either a variable or a constant.
type Term struct {
	// Var is the variable name; empty when the term is a constant.
	Var Var
	// Const is the constant literal, valid only when Var is empty.
	Const string
}

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// String renders the term as it appears in query syntax: bare variable
// names, single-quoted constants.
func (t Term) String() string {
	if t.IsVar() {
		return string(t.Var)
	}
	return "'" + t.Const + "'"
}

// V returns a variable term.
func V(name string) Term { return Term{Var: Var(name)} }

// C returns a constant term.
func C(lit string) Term { return Term{Const: lit} }

// Atom is one relational atom R(t1, ..., tk) of a query.
type Atom struct {
	// Rel is the relation symbol. In a self-join-free query every atom has
	// a distinct symbol, so Rel doubles as the atom's identity.
	Rel string
	// Args are the terms filling the relation's attribute positions.
	Args []Term
}

// Vars returns the set of variables occurring in the atom, in first-
// occurrence order.
func (a Atom) Vars() []Var {
	var out []Var
	seen := map[Var]bool{}
	for _, t := range a.Args {
		if t.IsVar() && !seen[t.Var] {
			seen[t.Var] = true
			out = append(out, t.Var)
		}
	}
	return out
}

// HasVar reports whether variable x occurs in the atom.
func (a Atom) HasVar(x Var) bool {
	for _, t := range a.Args {
		if t.Var == x {
			return true
		}
	}
	return false
}

// String renders the atom, e.g. "R(x, 'a')".
func (a Atom) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Rel + "(" + strings.Join(parts, ", ") + ")"
}

// CompareOp is a comparison operator usable in a predicate.
type CompareOp string

// Supported comparison operators.
const (
	OpLE   CompareOp = "<="
	OpLT   CompareOp = "<"
	OpGE   CompareOp = ">="
	OpGT   CompareOp = ">"
	OpEQ   CompareOp = "="
	OpNE   CompareOp = "!="
	OpLike CompareOp = "like"
)

// Predicate is a comparison between a variable and a constant, such as
// "s <= 1000" or "n like '%red%'". Predicates restrict the matching tuples
// but play no role in the dissociation structure of the query: they are
// pushed into the scans of the atoms that bind their variable.
type Predicate struct {
	Var   Var
	Op    CompareOp
	Const string
}

// String renders the predicate in query syntax. String constants are
// quoted; numeric literals stay bare, so the output reparses.
func (p Predicate) String() string {
	if p.Op == OpLike {
		return fmt.Sprintf("%s like '%s'", p.Var, p.Const)
	}
	c := p.Const
	if !isNumericLit(c) {
		c = "'" + c + "'"
	}
	return fmt.Sprintf("%s %s %s", p.Var, p.Op, c)
}

func isNumericLit(s string) bool {
	if s == "" {
		return false
	}
	dot := false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] >= '0' && s[i] <= '9':
		case s[i] == '-' && i == 0 && len(s) > 1:
		case s[i] == '.' && !dot && i > 0:
			dot = true
		default:
			return false
		}
	}
	return true
}

// Query is a self-join-free conjunctive query with optional comparison
// predicates.
type Query struct {
	// Name is the head predicate name, e.g. "q". Cosmetic.
	Name string
	// Head lists the free (head) variables. Empty for a Boolean query.
	Head []Var
	// Atoms is the query body. Relation symbols must be pairwise distinct.
	Atoms []Atom
	// Preds are comparison predicates over body variables.
	Preds []Predicate
}

// Validate checks the structural well-formedness rules the rest of the
// system relies on: at least one atom, pairwise-distinct relation symbols
// (self-join-freeness), head variables and predicate variables appearing in
// the body.
func (q *Query) Validate() error {
	if len(q.Atoms) == 0 {
		return fmt.Errorf("cq: query %s has no atoms", q.Name)
	}
	seen := map[string]bool{}
	for _, a := range q.Atoms {
		if a.Rel == "" {
			return fmt.Errorf("cq: query %s has an atom with an empty relation symbol", q.Name)
		}
		if seen[a.Rel] {
			return fmt.Errorf("cq: query %s is not self-join-free: relation %s occurs twice", q.Name, a.Rel)
		}
		seen[a.Rel] = true
	}
	body := q.varSet()
	for _, h := range q.Head {
		if !body[h] {
			return fmt.Errorf("cq: head variable %s of query %s does not occur in the body", h, q.Name)
		}
	}
	for _, p := range q.Preds {
		if !body[p.Var] {
			return fmt.Errorf("cq: predicate variable %s of query %s does not occur in the body", p.Var, q.Name)
		}
	}
	return nil
}

func (q *Query) varSet() map[Var]bool {
	s := map[Var]bool{}
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			s[v] = true
		}
	}
	return s
}

// Vars returns all variables of the query in a deterministic order
// (first occurrence across atoms).
func (q *Query) Vars() []Var {
	var out []Var
	seen := map[Var]bool{}
	for _, a := range q.Atoms {
		for _, v := range a.Vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// HeadSet returns the head variables as a set.
func (q *Query) HeadSet() VarSet {
	s := VarSet{}
	for _, v := range q.Head {
		s.Add(v)
	}
	return s
}

// EVars returns the existential variables — all body variables that are not
// head variables — in deterministic order.
func (q *Query) EVars() []Var {
	head := q.HeadSet()
	var out []Var
	for _, v := range q.Vars() {
		if !head.Has(v) {
			out = append(out, v)
		}
	}
	return out
}

// IsBoolean reports whether the query has no head variables.
func (q *Query) IsBoolean() bool { return len(q.Head) == 0 }

// Atom returns the atom with the given relation symbol, or nil.
func (q *Query) Atom(rel string) *Atom {
	for i := range q.Atoms {
		if q.Atoms[i].Rel == rel {
			return &q.Atoms[i]
		}
	}
	return nil
}

// PredsOnAtom returns the predicates whose variable occurs in atom a —
// the predicates a scan of a can apply as pushed-down selections.
func (q *Query) PredsOnAtom(a Atom) []Predicate {
	var out []Predicate
	for _, p := range q.Preds {
		if a.HasVar(p.Var) {
			out = append(out, p)
		}
	}
	return out
}

// String renders the query in the paper's datalog-ish notation, e.g.
// "q(z) :- R(z, x), S(x, y), T(y)".
func (q *Query) String() string {
	var b strings.Builder
	name := q.Name
	if name == "" {
		name = "q"
	}
	b.WriteString(name)
	b.WriteString("(")
	for i, h := range q.Head {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(h))
	}
	b.WriteString(") :- ")
	for i, a := range q.Atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	for _, p := range q.Preds {
		b.WriteString(", ")
		b.WriteString(p.String())
	}
	return b.String()
}

// Clone returns a deep copy of the query.
func (q *Query) Clone() *Query {
	c := &Query{Name: q.Name}
	c.Head = append([]Var(nil), q.Head...)
	c.Atoms = make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		c.Atoms[i] = Atom{Rel: a.Rel, Args: append([]Term(nil), a.Args...)}
	}
	c.Preds = append([]Predicate(nil), q.Preds...)
	return c
}

// VarSet is a set of variables.
type VarSet map[Var]bool

// NewVarSet builds a set from the given variables.
func NewVarSet(vs ...Var) VarSet {
	s := VarSet{}
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

// Add inserts v.
func (s VarSet) Add(v Var) { s[v] = true }

// Has reports membership of v.
func (s VarSet) Has(v Var) bool { return s[v] }

// Len returns the cardinality.
func (s VarSet) Len() int { return len(s) }

// Clone returns a copy of the set.
func (s VarSet) Clone() VarSet {
	c := make(VarSet, len(s))
	for v := range s {
		c[v] = true
	}
	return c
}

// Union returns a new set containing the members of both sets.
func (s VarSet) Union(o VarSet) VarSet {
	c := s.Clone()
	for v := range o {
		c[v] = true
	}
	return c
}

// Minus returns a new set with the members of o removed.
func (s VarSet) Minus(o VarSet) VarSet {
	c := VarSet{}
	for v := range s {
		if !o[v] {
			c[v] = true
		}
	}
	return c
}

// Intersect returns the intersection of the two sets.
func (s VarSet) Intersect(o VarSet) VarSet {
	c := VarSet{}
	for v := range s {
		if o[v] {
			c[v] = true
		}
	}
	return c
}

// SubsetOf reports whether every member of s is in o.
func (s VarSet) SubsetOf(o VarSet) bool {
	for v := range s {
		if !o[v] {
			return false
		}
	}
	return true
}

// Equal reports whether the two sets have the same members.
func (s VarSet) Equal(o VarSet) bool {
	return len(s) == len(o) && s.SubsetOf(o)
}

// Sorted returns the members in lexicographic order.
func (s VarSet) Sorted() []Var {
	out := make([]Var, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set as "{x, y}".
func (s VarSet) String() string {
	vs := s.Sorted()
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = string(v)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
