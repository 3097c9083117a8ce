package main

// Example runs the example end to end and pins what it prints.
func Example() {
	main()
	// Output:
	// 4-node explicit heat equation, 48x48x48, 150 steps
	// sine-mode amplitude: measured 0.734694, analytic 0.734694 (0.000% off)
	// GPU 2D stencil (100 passes): measured 0.824650, analytic 0.824650
	// GPU ran 100 passes over 409600 fragments
}
