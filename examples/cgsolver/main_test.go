package main

// Example runs the example end to end and pins what it prints.
func Example() {
	main()
	// Output:
	// FEM: 625 nodes, 1152 triangles, 529 unknowns, 3521 nonzeros
	// serial CG:      39 iterations, residual 4.52e-09, max error 0.0024
	// distributed CG: 39 iterations on 4 nodes, max |x_dist - x_serial| = 2.98e-07
	// GPU matvec:     max |A_gpu x - A x| = 0.00e+00 (1 passes)
}
