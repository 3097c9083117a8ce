package main

import (
	"os"
	"testing"
)

// TestMain runs the example in a temporary directory, so the PPM images
// it writes never land in the source tree.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dispersion-example")
	if err != nil {
		panic(err)
	}
	if err := os.Chdir(dir); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// Example runs the example end to end and pins what it prints.
func Example() {
	main()
	// Output:
	// district: 91 blocks, 855 buildings; lattice 64x40x10 at 29.6 m (6.9% solid)
	// flow: 40 steps on 4 GPU nodes
	// wrote streamlines.ppm (256x160)
	// tracer: released at (52,11,6) where u=(-0.007,-0.001,0.007); centroid after 200 steps: (50.6, 10.9, 5.0)
	// wrote plume.ppm (256x160)
}
