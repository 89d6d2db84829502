// Package workload models the query workload W that drives XQueC's
// compression choices (§3): the set of value-comparison predicates the
// queries contain, each relating one or two containers (root-to-leaf
// paths) or a container and a constant.
package workload

import "fmt"

// PredKind is the comparison class of a predicate — the three columns
// of the paper's E / I / D matrices.
type PredKind int

// Predicate kinds.
const (
	// Eq is an equality comparison without prefix matching (matrix E).
	Eq PredKind = iota
	// Ineq is an order comparison <, <=, >, >= (matrix I).
	Ineq
	// Wild is an equality comparison with prefix matching (matrix D).
	Wild
)

func (k PredKind) String() string {
	switch k {
	case Eq:
		return "eq"
	case Ineq:
		return "ineq"
	case Wild:
		return "wild"
	}
	return fmt.Sprintf("PredKind(%d)", int(k))
}

// Predicate is one value comparison of the workload. Left is always a
// container path; Right is a second container path for join predicates
// or empty for comparisons against constants.
type Predicate struct {
	Kind  PredKind
	Left  string
	Right string // empty: comparison with a constant
	// Weight is how many times the predicate occurs in W (default 1).
	Weight int
}

// IsJoin reports whether the predicate relates two containers.
func (p Predicate) IsJoin() bool { return p.Right != "" }

func (p Predicate) String() string {
	right := p.Right
	if right == "" {
		right = "<const>"
	}
	return fmt.Sprintf("%s(%s, %s)x%d", p.Kind, p.Left, right, p.weight())
}

func (p Predicate) weight() int {
	if p.Weight <= 0 {
		return 1
	}
	return p.Weight
}

// Workload is a bag of predicates.
type Workload struct {
	Predicates []Predicate
}

// Add appends a predicate.
func (w *Workload) Add(p Predicate) { w.Predicates = append(w.Predicates, p) }

// EqConst records an equality with a constant on the container path.
func (w *Workload) EqConst(path string) { w.Add(Predicate{Kind: Eq, Left: path}) }

// IneqConst records an order comparison with a constant.
func (w *Workload) IneqConst(path string) { w.Add(Predicate{Kind: Ineq, Left: path}) }

// WildConst records a prefix-match with a constant.
func (w *Workload) WildConst(path string) { w.Add(Predicate{Kind: Wild, Left: path}) }

// EqJoin records an equality join between two containers.
func (w *Workload) EqJoin(a, b string) { w.Add(Predicate{Kind: Eq, Left: a, Right: b}) }

// IneqJoin records an order (theta) join between two containers.
func (w *Workload) IneqJoin(a, b string) { w.Add(Predicate{Kind: Ineq, Left: a, Right: b}) }

// Paths returns the distinct container paths referenced by W, in first-
// appearance order.
func (w *Workload) Paths() []string {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if p != "" && !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, p := range w.Predicates {
		add(p.Left)
		add(p.Right)
	}
	return out
}
