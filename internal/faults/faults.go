// Package faults defines CSnake's fault model: the kinds of injectable
// faults (§4.1), the static attributes used by the analyzer's filtering
// rules (§4.1, §7), the loop nesting relations behind the ICFG/CFG causal
// edges (§4.3), and the six causal edge kinds of Table 1.
package faults

import "fmt"

// ID uniquely names an injection or monitor point. By convention IDs are
// dotted paths: "<system>.<component>.<point>", e.g. "dfs.ibr.rpc_ioe".
type ID string

// PointKind classifies an injection point.
type PointKind int

const (
	// Throw marks a system-specific exception site: an if-guarded throw
	// inside the target system's own code. Injection forces the guard to
	// fire once.
	Throw PointKind = iota
	// LibCall marks a library/native function invocation site whose
	// declared exception is injected at the call.
	LibCall
	// Negation marks a boolean-returning system-specific error detector
	// (e.g. node.isStale()); injection negates its return value.
	Negation
	// Loop marks a workload-related loop eligible for spinning-delay
	// (contention) injection; its iteration count is also monitored.
	Loop
)

func (k PointKind) String() string {
	switch k {
	case Throw:
		return "throw"
	case LibCall:
		return "libcall"
	case Negation:
		return "negation"
	case Loop:
		return "loop"
	default:
		return fmt.Sprintf("PointKind(%d)", int(k))
	}
}

// FaultClass is the dynamic class of a fault as it appears in causal
// edges: Table 1 distinguishes delays from exceptions/negations.
type FaultClass int

const (
	ClassException FaultClass = iota // thrown exception (Throw or LibCall point)
	ClassNegation                    // negated error-detector return
	ClassDelay                       // contention on a loop
)

func (c FaultClass) String() string {
	switch c {
	case ClassException:
		return "exception"
	case ClassNegation:
		return "negation"
	case ClassDelay:
		return "delay"
	default:
		return fmt.Sprintf("FaultClass(%d)", int(c))
	}
}

// Class maps a point kind to its fault class.
func (k PointKind) Class() FaultClass {
	switch k {
	case Negation:
		return ClassNegation
	case Loop:
		return ClassDelay
	default:
		return ClassException
	}
}

// ExcCategory labels exception points for the §4.1 filtering rules.
type ExcCategory int

const (
	ExcSystem     ExcCategory = iota // system-specific exception: injected
	ExcLibrary                       // library function exception: injected
	ExcReflection                    // reflection-related: filtered out
	ExcSecurity                      // security-related: filtered out
)

func (c ExcCategory) String() string {
	switch c {
	case ExcSystem:
		return "system"
	case ExcLibrary:
		return "library"
	case ExcReflection:
		return "reflection"
	case ExcSecurity:
		return "security"
	default:
		return fmt.Sprintf("ExcCategory(%d)", int(c))
	}
}

// Point is a statically-identified injection or monitor point, together
// with the attributes the filtering rules consult.
type Point struct {
	ID     ID
	Kind   PointKind
	System string
	// Func is the enclosing function name, matching the sim call-stack
	// frames pushed by the instrumented code.
	Func string
	Desc string

	// Exception attributes (§4.1).
	Category ExcCategory
	TestOnly bool // exception only reachable from tests: filtered

	// Loop attributes (§4.1 loop scalability analysis).
	ConstBound bool // constant upper bound on iterations: filtered
	HasIO      bool // loop body (transitively) performs I/O
	BodySize   int  // code reachable from the loop, for the bottom-10% rank

	// Negation attributes (§7 system-specific error filtering).
	ConfigOnly    bool // return computed only from final/config vars: filtered
	ConstReturn   bool // constant or unused return value: filtered
	PrimitiveOnly bool // primitive-only utility computation: filtered
}

// Injectable reports whether the point survives CSnake's conservative
// static filtering and participates in the fault space F.
func (pt Point) Injectable() bool {
	switch pt.Kind {
	case Throw, LibCall:
		return pt.Category != ExcReflection && pt.Category != ExcSecurity && !pt.TestOnly
	case Negation:
		return !pt.ConfigOnly && !pt.ConstReturn && !pt.PrimitiveOnly
	case Loop:
		return !pt.ConstBound
	default:
		return false
	}
}

// LoopNest declares one level of loop nesting: Parent directly contains
// Children, listed in program order. Consecutive children are siblings in
// the same batch (§4.3, Figure 5).
type LoopNest struct {
	Parent   ID
	Children []ID
}

// EdgeKind is one of the six causal relationship kinds of Table 1.
type EdgeKind int

const (
	// ED: injecting a delay causes an additional exception or negation
	// (execution trace interference of a delay).
	ED EdgeKind = iota
	// SD: injecting a delay causes a statistically significant iteration
	// increase in another loop.
	SD
	// EI: injecting an exception/negation causes an additional
	// exception or negation.
	EI
	// SI: injecting an exception/negation causes a loop iteration
	// increase.
	SI
	// ICFG: a delayed child loop propagates delay to its parent loop
	// (static, from LoopNest).
	ICFG
	// CFG: a delayed parent loop propagates delay to the next sibling
	// loop (static, from LoopNest).
	CFG
)

// Static reports whether the kind is one of the statically-derived loop
// connectors (ICFG/CFG): edges that carry no test or injection evidence.
func (k EdgeKind) Static() bool { return k == ICFG || k == CFG }

func (k EdgeKind) String() string {
	switch k {
	case ED:
		return "E(D)"
	case SD:
		return "S+(D)"
	case EI:
		return "E(I)"
	case SI:
		return "S+(I)"
	case ICFG:
		return "ICFG"
	case CFG:
		return "CFG"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(k))
	}
}

// Space is a resolved fault space: the injectable points of one system
// plus derived lookup tables. Every point carries a dense int index (its
// position in Points, assigned once at construction): the trace-recording
// hot path and other per-event consumers address flat slices by dense id
// instead of hashing string IDs.
type Space struct {
	Points []Point
	Nests  []LoopNest

	byID map[ID]int // ID -> dense index into Points
}

// NewSpace builds a Space from raw points and nests, applying both the
// per-point filters and the relative loop-scalability filter: loops in the
// lowest-ranked 10% by reachable code size that do not perform I/O are
// excluded (§4.1).
func NewSpace(points []Point, nests []LoopNest) *Space {
	shortCut := shortLoopCutoff(points)
	s := &Space{Nests: nests, byID: make(map[ID]int, len(points))}
	for _, pt := range points {
		if !pt.Injectable() {
			continue
		}
		if pt.Kind == Loop && !pt.HasIO && pt.BodySize <= shortCut {
			continue
		}
		s.byID[pt.ID] = len(s.Points)
		s.Points = append(s.Points, pt)
	}
	return s
}

// shortLoopCutoff returns the body-size value at the bottom-decile rank of
// all loop points, or -1 when there are too few loops to rank.
func shortLoopCutoff(points []Point) int {
	var sizes []int
	for _, pt := range points {
		if pt.Kind == Loop {
			sizes = append(sizes, pt.BodySize)
		}
	}
	if len(sizes) < 10 {
		return -1
	}
	// Insertion sort: the slice is small and this keeps us allocation-free.
	for i := 1; i < len(sizes); i++ {
		for j := i; j > 0 && sizes[j] < sizes[j-1]; j-- {
			sizes[j], sizes[j-1] = sizes[j-1], sizes[j]
		}
	}
	return sizes[len(sizes)/10-1]
}

// Lookup returns the point for id if it is part of the injectable space.
func (s *Space) Lookup(id ID) (Point, bool) {
	if i, ok := s.byID[id]; ok {
		return s.Points[i], true
	}
	return Point{}, false
}

// Index returns the dense index of id within the space. Dense indices are
// stable for the lifetime of the Space and cover [0, Size()).
func (s *Space) Index(id ID) (int, bool) {
	i, ok := s.byID[id]
	return i, ok
}

// IDAt returns the fault ID at dense index i.
func (s *Space) IDAt(i int) ID { return s.Points[i].ID }

// Class returns the fault class of id, defaulting to exception when the
// point is unknown (conservative for edge typing).
func (s *Space) Class(id ID) FaultClass {
	if i, ok := s.byID[id]; ok {
		return s.Points[i].Kind.Class()
	}
	return ClassException
}

// IDs returns the ids of all injectable points, in declaration order.
func (s *Space) IDs() []ID {
	out := make([]ID, len(s.Points))
	for i, pt := range s.Points {
		out[i] = pt.ID
	}
	return out
}

// Size returns |F|, the number of injectable faults.
func (s *Space) Size() int { return len(s.Points) }
