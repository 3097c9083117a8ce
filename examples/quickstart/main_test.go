package main

// Example runs the example end to end and pins what it prints.
func Example() {
	main()
	// Output:
	// after 200 steps, center velocity (GPU): (-0.01927, -0.00048, -0.00006)
	// CPU reference:                          (-0.01927, -0.00048, -0.00006)
	// GPU executed 19200 render passes, used 0.8 MB of texture memory
	// bus traffic: 0.6 MB down, 0.1 MB up (AGP asymmetry: up is the slow path)
}
