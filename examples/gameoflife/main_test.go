package main

// Example runs the example end to end and pins what it prints.
func Example() {
	main()
	// Output:
	// serial: 100 generations, population 294
	// GPU:    population 294 after 100 render passes
	// 4-node: population 294
	// GPU and cluster boards match the serial automaton exactly
}
