package bench

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
)

func fmtSscan(s string, v *int64) (int, error) { return fmt.Sscan(s, v) }

// tinyScale keeps harness tests fast.
func tinyScale() Scale {
	return Scale{
		RHGScales:  []int{9, 10},
		RHGDegExps: []int{4, 5},
		CoreBase:   1 << 11,
		Reps:       1,
		Seed:       1,
	}
}

func TestSequentialAlgosAgree(t *testing.T) {
	g := gen.BarabasiAlbert(400, 4, 2)
	var want int64
	for i, a := range SequentialAlgos() {
		v := a.Run(g, 1)
		if i == 0 {
			want = v
		} else if v != want {
			t.Fatalf("%s = %d, want %d", a.Name, v, want)
		}
	}
}

func TestTimeChecksRepeatability(t *testing.T) {
	g := gen.Ring(64)
	m := Time("ring", g, SequentialAlgos()[2], 3, 1)
	if m.Value != 2 {
		t.Fatalf("value = %d", m.Value)
	}
	if m.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
	if m.NsPerEdge() <= 0 {
		t.Error("ns/edge not computed")
	}
}

func TestPerformanceProfile(t *testing.T) {
	ms := []Measurement{
		{Instance: "a", Algo: "x", Elapsed: 100},
		{Instance: "a", Algo: "y", Elapsed: 200},
		{Instance: "b", Algo: "x", Elapsed: 300},
		{Instance: "b", Algo: "y", Elapsed: 150},
	}
	prof := PerformanceProfile(ms)
	if prof["x"][0] != 0.5 || prof["x"][1] != 1.0 {
		t.Errorf("x profile = %v", prof["x"])
	}
	if prof["y"][0] != 0.5 || prof["y"][1] != 1.0 {
		t.Errorf("y profile = %v", prof["y"])
	}
}

func TestGeometricMeanSpeedup(t *testing.T) {
	base := map[string]time.Duration{"a": 200, "b": 800}
	other := map[string]time.Duration{"a": 100, "b": 200}
	// Speedups 2 and 4: geometric mean √8 ≈ 2.83.
	got := GeometricMeanSpeedup(base, other)
	if got < 2.8 || got > 2.9 {
		t.Errorf("geo mean = %v, want ≈2.83", got)
	}
	if GeometricMeanSpeedup(map[string]time.Duration{}, other) != 1 {
		t.Error("empty base should give 1")
	}
}

func TestInstanceGenerators(t *testing.T) {
	s := tinyScale()
	rhg := RHGInstances(s)
	if len(rhg) != 4 {
		t.Fatalf("RHG instances = %d, want 4", len(rhg))
	}
	for _, inst := range rhg {
		if !inst.G.IsConnected() {
			t.Errorf("%s not connected", inst.Name)
		}
	}
	cores := CoreInstances(s)
	if len(cores) == 0 {
		t.Fatal("no core instances")
	}
	for _, c := range cores {
		if c.G.NumVertices() == 0 || !c.G.IsConnected() {
			t.Errorf("%s empty or disconnected", c.Name)
		}
		for v := 0; v < c.G.NumVertices(); v++ {
			if int32(c.G.Degree(int32(v))) < c.K {
				t.Fatalf("%s: vertex %d degree %d below k=%d", c.Name, v, c.G.Degree(int32(v)), c.K)

			}
		}
	}
	scaling := ScalingInstances(s)
	if len(scaling) != 5 {
		t.Fatalf("scaling instances = %d, want 5 (as in Figure 5)", len(scaling))
	}
}

func TestFig2SmokeAndAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	ms := Fig2(&buf, tinyScale())
	if len(ms) == 0 {
		t.Fatal("no measurements")
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "NOIl-Heap-VieCut") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestTable1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	Table1(&buf, tinyScale())
	out := buf.String()
	if !strings.Contains(out, "lambda") || !strings.Contains(out, "ba-social") {
		t.Errorf("unexpected output:\n%s", out)
	}
	// λ must never exceed δ in any row.
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Split(line, "\t")
		if len(fields) == 8 && fields[0] != "graph" {
			var lambda, delta int64
			if _, err := fmtSscan(fields[6], &lambda); err != nil {
				continue
			}
			if _, err := fmtSscan(fields[7], &delta); err != nil {
				continue
			}
			if lambda > delta {
				t.Errorf("row %q: lambda %d > delta %d", line, lambda, delta)
			}
		}
	}
}

func TestMaxWorkersShape(t *testing.T) {
	ws := MaxWorkers()
	if len(ws) == 0 || ws[0] != 1 {
		t.Fatalf("MaxWorkers = %v", ws)
	}
	for i := 1; i < len(ws); i++ {
		if ws[i] <= ws[i-1] {
			t.Fatalf("not increasing: %v", ws)
		}
	}
}

// The ParCut ± VieCut table runs both arms at one worker and at
// GOMAXPROCS workers, and every row of an instance carries one λ, which
// never exceeds δ.
func TestParCutVieCutTable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := tinyScale()
	var buf bytes.Buffer
	cores := CoreInstances(s)
	rows := parCutVieCutTable(&buf, s, cores)
	type key struct {
		inst    string
		workers int
		vieCut  bool
	}
	seen := map[key]bool{}
	lambda := map[string]int64{}
	for _, r := range rows {
		seen[key{r.Instance, r.Workers, r.VieCut}] = true
		if l, ok := lambda[r.Instance]; ok && l != r.Lambda {
			t.Errorf("%s: lambda %d and %d", r.Instance, l, r.Lambda)
		}
		lambda[r.Instance] = r.Lambda
		if r.Lambda > r.Delta || r.Millis <= 0 {
			t.Errorf("row %+v: lambda above delta or no time", r)
		}
		if r.Q1Millis > r.Millis || r.Millis > r.Q3Millis {
			t.Errorf("row %+v: median outside its quartiles", r)
		}
	}
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	for inst := range lambda {
		for _, w := range workers {
			for _, vc := range []bool{true, false} {
				if !seen[key{inst, w, vc}] {
					t.Errorf("%s: no row for workers=%d viecut=%v", inst, w, vc)
				}
			}
		}
	}
	if len(lambda) != len(cores)+len(ScalingInstances(s)) {
		t.Errorf("%d instances in the table, want every core and scaling instance", len(lambda))
	}
}
