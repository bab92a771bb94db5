package ycsb

import (
	"testing"
	"testing/quick"
)

func TestStandardWorkloadsValid(t *testing.T) {
	for _, w := range Workloads() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if len(Workloads()) != 5 {
		t.Error("expected workloads A, B, C, D, F")
	}
}

func TestWorkloadByName(t *testing.T) {
	w, err := WorkloadByName("A")
	if err != nil || w.Name != "A" {
		t.Errorf("lookup A failed: %v", err)
	}
	if _, err := WorkloadByName("E"); err == nil {
		t.Error("workload E should be unknown (scans not modeled)")
	}
}

func TestWriteFractions(t *testing.T) {
	cases := map[string]float64{"A": 0.5, "B": 0.05, "C": 0, "D": 0.05, "F": 0.5}
	for name, want := range cases {
		w, _ := WorkloadByName(name)
		// Updates, inserts and the write half of RMW count as writes.
		if got := w.UpdateP + w.InsertP + w.RMWP; got != want {
			t.Errorf("%s write fraction = %v, want %v", name, got, want)
		}
	}
}

func TestMixProportions(t *testing.T) {
	g := NewGenerator(WorkloadA, 10000, Uniform, 1)
	counts := map[OpType]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Next().Type]++
	}
	rf := float64(counts[Read]) / n
	uf := float64(counts[Update]) / n
	if rf < 0.48 || rf > 0.52 || uf < 0.48 || uf > 0.52 {
		t.Errorf("workload A mix off: read=%v update=%v", rf, uf)
	}
}

func TestKeysInRange(t *testing.T) {
	for _, dist := range []Distribution{Uniform, Zipfian} {
		g := NewGenerator(WorkloadC, 5000, dist, 2)
		for i := 0; i < 50000; i++ {
			op := g.Next()
			if op.Key < 0 || op.Key >= g.inserted {
				t.Fatalf("%v: key %d out of range [0, %d)", dist, op.Key, g.inserted)
			}
		}
	}
}

func TestInsertGrowsKeyspace(t *testing.T) {
	g := NewGenerator(WorkloadD, 1000, Zipfian, 3)
	before := g.inserted
	inserts := 0
	for i := 0; i < 20000; i++ {
		if g.Next().Type == Insert {
			inserts++
		}
	}
	if g.inserted != before+inserts {
		t.Errorf("keyspace grew by %d, want %d", g.inserted-before, inserts)
	}
	if inserts == 0 {
		t.Error("workload D generated no inserts")
	}
}

func TestZipfianSkewsHead(t *testing.T) {
	g := NewGenerator(WorkloadC, 100000, Zipfian, 4)
	head := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if g.Next().Key < 1000 {
			head++
		}
	}
	if frac := float64(head) / n; frac < 0.3 {
		t.Errorf("zipfian head fraction = %v, want substantial", frac)
	}
}

func TestUniformCoversKeyspaceProperty(t *testing.T) {
	f := func(seed uint32) bool {
		g := NewGenerator(WorkloadC, 100, Uniform, uint64(seed))
		seen := map[int]bool{}
		for i := 0; i < 5000; i++ {
			seen[g.Next().Key] = true
		}
		return len(seen) > 95
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGeneratorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero keys": func() { NewGenerator(WorkloadA, 0, Uniform, 1) },
		"bad mix":   func() { NewGenerator(Workload{Name: "X", ReadP: 0.3}, 10, Uniform, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStrings(t *testing.T) {
	if Read.String() != "read" || ReadModifyWrite.String() != "rmw" {
		t.Error("op type strings wrong")
	}
	if Uniform.String() != "uniform" || Zipfian.String() != "zipfian" {
		t.Error("distribution strings wrong")
	}
}
