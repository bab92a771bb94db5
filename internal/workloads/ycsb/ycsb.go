// Package ycsb generates Yahoo! Cloud Serving Benchmark operation streams
// (Cooper et al., SoCC'10) for the Redis experiments of §5. It implements
// the standard core workloads A–F with uniform and zipfian key
// distributions. The paper uses a uniform distribution "ensuring maximum
// stress on the memory subsystem, unless we explicitly specify" otherwise.
package ycsb

import (
	"fmt"
	"strings"

	"cxlmem/internal/sim"
)

// OpType is a YCSB operation kind.
type OpType int

const (
	// Read fetches a record.
	Read OpType = iota
	// Update overwrites a record's value.
	Update
	// Insert appends a new record.
	Insert
	// ReadModifyWrite reads then updates a record (workload F).
	ReadModifyWrite
)

// String names the operation.
func (t OpType) String() string {
	switch t {
	case Read:
		return "read"
	case Update:
		return "update"
	case Insert:
		return "insert"
	case ReadModifyWrite:
		return "rmw"
	default:
		return fmt.Sprintf("OpType(%d)", int(t))
	}
}

// Op is one generated operation.
type Op struct {
	Type OpType
	Key  int
}

// Distribution selects how keys are drawn.
type Distribution int

const (
	// Uniform draws keys uniformly (the paper's default).
	Uniform Distribution = iota
	// Zipfian draws keys zipf(0.99), the YCSB default skew.
	Zipfian
)

// String names the distribution.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "uniform"
	case Zipfian:
		return "zipfian"
	default:
		return fmt.Sprintf("Distribution(%d)", int(d))
	}
}

// ZipfTheta is the YCSB default zipfian skew.
const ZipfTheta = 0.99

// Workload is a YCSB operation mix.
type Workload struct {
	// Name is the YCSB letter ("A".."F").
	Name string
	// ReadP, UpdateP, InsertP, RMWP are the operation proportions; they
	// must sum to 1.
	ReadP, UpdateP, InsertP, RMWP float64
}

// Validate reports mix errors.
func (w Workload) Validate() error {
	sum := w.ReadP + w.UpdateP + w.InsertP + w.RMWP
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("ycsb: workload %s proportions sum to %v", w.Name, sum)
	}
	return nil
}

// The standard core workloads. E (scans) is omitted: the paper evaluates
// A, B, C, D and F (Fig. 9b).
var (
	WorkloadA = Workload{Name: "A", ReadP: 0.5, UpdateP: 0.5}
	WorkloadB = Workload{Name: "B", ReadP: 0.95, UpdateP: 0.05}
	WorkloadC = Workload{Name: "C", ReadP: 1.0}
	WorkloadD = Workload{Name: "D", ReadP: 0.95, InsertP: 0.05}
	WorkloadF = Workload{Name: "F", ReadP: 0.5, RMWP: 0.5}
)

// Workloads returns the evaluated workloads in Fig. 9b order.
func Workloads() []Workload {
	return []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadF}
}

// WorkloadByName finds a workload by letter.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
}

// Aliases maps the descriptive scenario-spec names onto the YCSB letters:
// updateheavy=A, readmostly=B, readonly=C, readlatest=D, rmw=F.
func Aliases() map[string]string {
	return map[string]string{
		"updateheavy": "A",
		"readmostly":  "B",
		"readonly":    "C",
		"readlatest":  "D",
		"rmw":         "F",
	}
}

// WorkloadByAlias resolves a workload by letter (either case) or by the
// descriptive aliases of Aliases.
func WorkloadByAlias(name string) (Workload, error) {
	if canonical, ok := Aliases()[strings.ToLower(name)]; ok {
		name = canonical
	}
	return WorkloadByName(strings.ToUpper(name))
}

// Generator produces an operation stream.
type Generator struct {
	w        Workload
	dist     Distribution
	inserted int
	rng      *sim.Rng
	zipf     *sim.Zipf
}

// NewGenerator creates a generator over a keyspace of the given size whose
// keys follow dist (the paper forces Uniform for its latency experiments).
func NewGenerator(w Workload, keys int, dist Distribution, seed uint64) *Generator {
	if err := w.Validate(); err != nil {
		panic(err)
	}
	if keys <= 0 {
		panic("ycsb: non-positive keyspace")
	}
	rng := sim.NewRng(seed)
	g := &Generator{w: w, dist: dist, inserted: keys, rng: rng}
	if dist == Zipfian {
		g.zipf = sim.NewZipf(rng, keys, ZipfTheta)
	}
	return g
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	op := g.pickType()
	if op == Insert {
		key := g.inserted
		g.inserted++
		return Op{Type: Insert, Key: key}
	}
	return Op{Type: op, Key: g.pickKey()}
}

func (g *Generator) pickType() OpType {
	u := g.rng.Float64()
	switch {
	case u < g.w.ReadP:
		return Read
	case u < g.w.ReadP+g.w.UpdateP:
		return Update
	case u < g.w.ReadP+g.w.UpdateP+g.w.InsertP:
		return Insert
	default:
		return ReadModifyWrite
	}
}

func (g *Generator) pickKey() int {
	switch g.dist {
	case Uniform:
		return g.rng.Intn(g.inserted)
	case Zipfian:
		return g.zipf.Next() % g.inserted
	default:
		panic(fmt.Sprintf("ycsb: unknown distribution %v", g.dist))
	}
}
