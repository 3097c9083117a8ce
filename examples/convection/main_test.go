package main

// Example runs the example end to end and pins what it prints.
func Example() {
	main()
	// Output:
	// step  150: mean T 0.5005, max upward velocity 0.00143
	// step  300: mean T 0.5002, max upward velocity 0.00408
	// step  450: mean T 0.5002, max upward velocity 0.02016
	// step  600: mean T 0.5015, max upward velocity 0.08100
	// circulation: max rise 0.08100, max sink -0.08574
	// convection cell established (HTLBM: MRT + thermal coupling)
}
