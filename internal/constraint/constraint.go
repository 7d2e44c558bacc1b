// Package constraint implements the constraint construction procedure
// C(c, g) of Figure 5: it walks the renamed AI, threading the guard g
// (initially true) through commands, and produces
//
//   - one guarded equation  t(vα) = g ? e : t(vα-1)  per assignment,
//   - one guarded check     g ⇒ ⋀ t(arg) < τr       per assertion.
//
// Guards are boolean expressions over the nondeterministic branch
// variables BN. The paper's Figure 5 maps stop to the trivial constraint
// true; this implementation refines that by tracking the continuation
// guard — after "if b { stop }" the rest of the sequence runs under g∧¬b —
// which keeps the encoding exactly faithful to the AI's execution semantics
// (and to the reference evaluator in package ai).
//
// Per §3.3.2, the per-assertion formula is
//
//	B_i = C(c, g) ∧ ¬C(assert_i, g)
//
// where c is the concatenation of all commands preceding assert_i, and —
// following the paper's iteration — every already-checked assertion is
// added positively before moving to the next one.
package constraint

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"webssari/internal/rename"
)

// Bool is a guard formula over branch variables.
type Bool interface {
	boolExpr()
	String() string
}

// True is the constant true guard.
type True struct{}

// False is the constant false guard (unreachable code after stop).
type False struct{}

// Branch is a literal over nondeterministic branch variable b_ID.
type Branch struct {
	ID  int
	Neg bool
}

// And is conjunction.
type And struct {
	Parts []Bool
}

// Or is disjunction.
type Or struct {
	Parts []Bool
}

func (True) boolExpr()   {}
func (False) boolExpr()  {}
func (Branch) boolExpr() {}
func (And) boolExpr()    {}
func (Or) boolExpr()     {}

// String implements Bool.
func (True) String() string { return "true" }

// String implements Bool.
func (False) String() string { return "false" }

// String implements Bool.
func (b Branch) String() string {
	if b.Neg {
		return fmt.Sprintf("¬b%d", b.ID)
	}
	return fmt.Sprintf("b%d", b.ID)
}

// String implements Bool.
func (a And) String() string { return joinBools(a.Parts, " ∧ ") }

// String implements Bool.
func (o Or) String() string { return joinBools(o.Parts, " ∨ ") }

func joinBools(parts []Bool, sep string) string {
	ss := make([]string, len(parts))
	for i, p := range parts {
		ss[i] = p.String()
	}
	return "(" + strings.Join(ss, sep) + ")"
}

// MkAnd builds a simplified conjunction.
func MkAnd(parts ...Bool) Bool {
	var flat []Bool
	for _, p := range parts {
		switch p := p.(type) {
		case nil, True:
			continue
		case False:
			return False{}
		case And:
			flat = append(flat, p.Parts...)
		default:
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return True{}
	case 1:
		return flat[0]
	default:
		return And{Parts: flat}
	}
}

// MkOr builds a simplified disjunction.
func MkOr(parts ...Bool) Bool {
	var flat []Bool
	for _, p := range parts {
		switch p := p.(type) {
		case nil, False:
			continue
		case True:
			return True{}
		case Or:
			flat = append(flat, p.Parts...)
		default:
			flat = append(flat, p)
		}
	}
	switch len(flat) {
	case 0:
		return False{}
	case 1:
		return flat[0]
	default:
		return Or{Parts: flat}
	}
}

// EvalBool evaluates a guard under a branch assignment (missing branches
// default to false, matching "branch not taken").
func EvalBool(b Bool, branches map[int]bool) bool {
	switch b := b.(type) {
	case True:
		return true
	case False:
		return false
	case Branch:
		return branches[b.ID] != b.Neg
	case And:
		for _, p := range b.Parts {
			if !EvalBool(p, branches) {
				return false
			}
		}
		return true
	case Or:
		for _, p := range b.Parts {
			if EvalBool(p, branches) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// BoolBranches returns the branch IDs a guard mentions.
func BoolBranches(b Bool) []int {
	seen := make(map[int]bool)
	var order []int
	var walk func(Bool)
	walk = func(b Bool) {
		switch b := b.(type) {
		case Branch:
			if !seen[b.ID] {
				seen[b.ID] = true
				order = append(order, b.ID)
			}
		case And:
			for _, p := range b.Parts {
				walk(p)
			}
		case Or:
			for _, p := range b.Parts {
				walk(p)
			}
		}
	}
	walk(b)
	return order
}

// Equation is the Figure 5 constraint for one single assignment:
// t(V) = Guard ? RHS : t(Prev), where Prev is V with index α−1.
type Equation struct {
	V     rename.SSAVar
	Guard Bool
	RHS   rename.Expr
	// Prev is the previous index of the same variable (Idx = V.Idx−1).
	Prev rename.SSAVar
	// Origin is the renamed assignment this equation encodes.
	Origin *rename.Set
}

// String renders the equation as in Figure 6's constraint column.
func (e Equation) String() string {
	return fmt.Sprintf("t(%s) = %s ? %s : t(%s)", e.V, e.Guard, e.RHS, e.Prev)
}

// BranchMark records a nondeterministic branch's position in the command
// order, so the encoder can allocate a BN variable for every branch in an
// assertion's prefix — including branches that guard no assignment (empty
// arms), whose decisions still distinguish counterexample traces.
type BranchMark struct {
	ID   int
	Tick int
}

// Check is the Figure 5 constraint for one assertion:
// Guard ⇒ ⋀_args t(arg) < Bound (the bound lives in Origin).
type Check struct {
	// ID is the assertion's index in textual order.
	ID    int
	Guard Bool
	// Origin carries the renamed assertion (args, bound, source site).
	Origin *rename.Assert
	// Prefix is the number of equations that precede this assertion: the
	// formula B_i contains exactly Equations[:Prefix].
	Prefix int
	// Tick is the assertion's position in the global command order,
	// comparable with BranchMark.Tick.
	Tick int
}

// String renders the check.
func (c Check) String() string {
	args := make([]string, len(c.Origin.Args))
	for i, a := range c.Origin.Args {
		args[i] = a.Expr.String()
	}
	return fmt.Sprintf("%s ⇒ (%s < τr)", c.Guard, strings.Join(args, ", "))
}

// System is the constraint view of a renamed program: the ordered
// equations plus one check per assertion.
type System struct {
	Renamed   *rename.Program
	Equations []Equation
	Checks    []Check
	// Marks lists every branch with its command-order position, in
	// ascending Tick order.
	Marks []BranchMark

	// The dependency index behind Cone, EquationDeps and CheckDeps,
	// built once (by Build, or on first use for a System assembled by
	// hand) and only read afterwards, so concurrent solves may share it.
	// Equation i's edges are eqDeps[eqAt[i]:eqAt[i+1]] and check j's are
	// chkDeps[chkAt[j]:chkAt[j+1]].
	indexOnce      sync.Once
	eqDeps, eqAt   []int32
	chkDeps, chkAt []int32
}

// Build runs the constraint construction procedure over the whole renamed
// program.
func Build(p *rename.Program) *System {
	s := &System{Renamed: p}
	tick := 0
	s.walk(p.Cmds, True{}, &tick)
	s.indexOnce.Do(s.buildIndex)
	return s
}

// PrefixBranches returns the branches preceding the check in command
// order — the BN variables of the formula B_i. The result is a view of
// Marks and must not be modified.
func (s *System) PrefixBranches(c Check) []BranchMark {
	n := sort.Search(len(s.Marks), func(i int) bool { return s.Marks[i].Tick >= c.Tick })
	return s.Marks[:n:n]
}

// EquationDeps returns the dependency edges of equation i: the index of
// the equation defining its Prev, then the defining equation of every
// Ref in its RHS, depth first and left to right. An edge is -1 when the
// variable has no defining equation before i: index 0 (the initial
// value), or a malformed read the encoder must reject. The slice must
// not be modified.
func (s *System) EquationDeps(i int) []int32 {
	s.indexOnce.Do(s.buildIndex)
	return s.eqDeps[s.eqAt[i]:s.eqAt[i+1]]
}

// CheckDeps returns the dependency edges of check j: the defining
// equation of every Ref in its arguments, in argument order and within
// an argument as in EquationDeps, with -1 as there. The slice must not
// be modified.
func (s *System) CheckDeps(j int) []int32 {
	s.indexOnce.Do(s.buildIndex)
	return s.chkDeps[s.chkAt[j]:s.chkAt[j+1]]
}

// Cone returns the cone of influence of check j in ascending order: the
// equations its arguments transitively depend on through RHS reads and
// Prev links. With withPrior, the arguments of every earlier check are
// roots too (the paper's incremental restriction assumes them). Guards
// mention only branch variables, so they contribute no equations. The
// prefix's other equations define variables from the branch variables
// and from each other, and nothing in the cone reads them, so leaving
// them out preserves B_i's models projected onto the branch variables.
func (s *System) Cone(j int, withPrior bool) []int32 {
	s.indexOnce.Do(s.buildIndex)
	seen := make([]uint64, (s.Checks[j].Prefix+63)/64)
	var stack []int32
	size := 0
	push := func(deps []int32) {
		for _, d := range deps {
			if d >= 0 && seen[d/64]&(1<<(d%64)) == 0 {
				seen[d/64] |= 1 << (d % 64)
				stack = append(stack, d)
				size++
			}
		}
	}
	push(s.CheckDeps(j))
	if withPrior {
		for k := 0; k < j; k++ {
			push(s.CheckDeps(k))
		}
	}
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		push(s.EquationDeps(int(d)))
	}
	// The bitset already holds the cone in index order.
	cone := make([]int32, 0, size)
	for w, word := range seen {
		for word != 0 {
			cone = append(cone, int32(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return cone
}

// visitRefs calls fn for every Ref in x, depth first and left to right —
// the order of the edges EquationDeps and CheckDeps record.
func visitRefs(x rename.Expr, fn func(rename.SSAVar)) {
	switch x := x.(type) {
	case rename.Ref:
		fn(x.V)
	case rename.Join:
		for _, p := range x.Parts {
			visitRefs(p, fn)
		}
	}
}

// buildIndex resolves every read of the system to its defining equation.
// SSA indices count a name's assignments in command order, so the
// equation defining name@k is the k-th equation assigning name.
func (s *System) buildIndex() {
	defs := make(map[string][]int32)
	for i, eq := range s.Equations {
		defs[eq.V.Name] = append(defs[eq.V.Name], int32(i))
	}
	// resolve returns the defining equation of v if it precedes limit.
	resolve := func(v rename.SSAVar, limit int) int32 {
		if v.Idx > 0 && v.Idx <= len(defs[v.Name]) {
			if d := defs[v.Name][v.Idx-1]; int(d) < limit && s.Equations[d].V == v {
				return d
			}
		}
		return -1
	}
	s.eqAt = make([]int32, 1, len(s.Equations)+1)
	for i, eq := range s.Equations {
		s.eqDeps = append(s.eqDeps, resolve(eq.Prev, i))
		visitRefs(eq.RHS, func(v rename.SSAVar) {
			s.eqDeps = append(s.eqDeps, resolve(v, i))
		})
		s.eqAt = append(s.eqAt, int32(len(s.eqDeps)))
	}
	s.chkAt = make([]int32, 1, len(s.Checks)+1)
	for _, ch := range s.Checks {
		for _, arg := range ch.Origin.Args {
			visitRefs(arg.Expr, func(v rename.SSAVar) {
				s.chkDeps = append(s.chkDeps, resolve(v, ch.Prefix))
			})
		}
		s.chkAt = append(s.chkAt, int32(len(s.chkDeps)))
	}
}

// walk processes a command sequence under guard g and returns the
// continuation guard (False after an unconditional stop; g∧¬b style
// refinements after conditional stops).
func (s *System) walk(cmds []rename.Cmd, g Bool, tick *int) Bool {
	for _, c := range cmds {
		*tick++
		switch c := c.(type) {
		case *rename.Set:
			s.Equations = append(s.Equations, Equation{
				V:      c.V,
				Guard:  g,
				RHS:    c.RHS,
				Prev:   rename.SSAVar{Name: c.V.Name, Idx: c.V.Idx - 1},
				Origin: c,
			})
		case *rename.Assert:
			s.Checks = append(s.Checks, Check{
				ID:     c.ID,
				Guard:  g,
				Origin: c,
				Prefix: len(s.Equations),
				Tick:   *tick,
			})
		case *rename.If:
			s.Marks = append(s.Marks, BranchMark{ID: c.ID, Tick: *tick})
			bPos := Branch{ID: c.ID}
			bNeg := Branch{ID: c.ID, Neg: true}
			gThen := s.walk(c.Then, MkAnd(g, bPos), tick)
			gElse := s.walk(c.Else, MkAnd(g, bNeg), tick)
			// Continuation: either arm completed without stopping. When
			// neither arm contains a stop this simplifies back to g.
			if isAndOf(gThen, g, bPos) && isAndOf(gElse, g, bNeg) {
				// Neither arm stopped.
				continue
			}
			g = MkOr(gThen, gElse)
		case *rename.Stop:
			g = False{}
		}
	}
	return g
}

// isAndOf reports whether got is exactly MkAnd(g, lit) — the unchanged
// continuation guard of a stop-free arm.
func isAndOf(got Bool, g Bool, lit Branch) bool {
	want := MkAnd(g, lit)
	return got.String() == want.String()
}

// String renders the whole system.
func (s *System) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "constraints for %s\n", s.Renamed.AI.File)
	for _, eq := range s.Equations {
		fmt.Fprintf(&b, "  %s\n", eq)
	}
	for _, ch := range s.Checks {
		fmt.Fprintf(&b, "  assert_%d: %s\n", ch.ID, ch)
	}
	return b.String()
}
