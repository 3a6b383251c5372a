// Package datasets catalogs the real-instance corpus vendored under
// testdata/: small MatrixMarket graphs with their pinned vertex count,
// edge count and minimum-cut value. Tests across the repository and the
// mincutd CI smokes read the same files, so a solver's answer on a named
// graph is checked against one catalogued λ everywhere.
package datasets

import (
	"fmt"
	"path/filepath"
	"runtime"

	"repro/internal/graph"
	"repro/internal/graphio"
)

// Dataset is one named benchmark instance.
type Dataset struct {
	Name string
	File string // file name under testdata/
	// N, M and Lambda are the expected vertex count, edge count and
	// minimum-cut value.
	N, M   int
	Lambda int64
	// Description records provenance.
	Description string
}

// Vendored lists the instances shipped in testdata/.
func Vendored() []Dataset {
	return []Dataset{
		{Name: "karate", File: "karate.mtx", N: 34, M: 78, Lambda: 1,
			Description: "Zachary karate club social network (Zachary 1977; SuiteSparse Newman/karate)"},
		{Name: "petersen", File: "petersen.mtx", N: 10, M: 15, Lambda: 3,
			Description: "Petersen graph: 3-regular, 3-edge-connected"},
		{Name: "dodecahedral", File: "dodecahedral.mtx", N: 20, M: 30, Lambda: 3,
			Description: "Dodecahedral graph (LCF [10,7,4,-4,-7,10,-4,7,-7,4]^2)"},
		{Name: "mesh9x9", File: "mesh9x9.mtx", N: 81, M: 208, Lambda: 2,
			Description: "Triangulated 9x9 grid, the FEM mesh structure of the jagmesh class"},
		{Name: "wheel33", File: "wheel33.mtx", N: 33, M: 64, Lambda: 5,
			Description: "Weighted wheel: rim weight 2, spokes weight 1; 32 minimum cuts"},
	}
}

// Path returns the on-disk location of d.
func (d Dataset) Path() string { return filepath.Join(vendorDir(), d.File) }

// Load reads d as a graph.
func (d Dataset) Load() (*graph.Graph, error) {
	g, err := graphio.ReadFile(d.Path(), "matrixmarket")
	if err != nil {
		return nil, fmt.Errorf("datasets: %s: %w", d.Name, err)
	}
	return g, nil
}

// vendorDir locates testdata/ relative to this source file, so `go test`
// in any package finds the vendored corpus.
func vendorDir() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return filepath.Join("internal", "datasets", "testdata")
	}
	return filepath.Join(filepath.Dir(file), "testdata")
}
