package main

// Example runs the walk-through on the simulation kernel, where its
// virtual timestamps are the same on every run.
func Example() {
	main()
	// Output:
	// [  186.9 ms] itinerary A unavailable: child aborted, parent intact
	// [  355.9 ms] itinerary B booked: child committed into parent
	// [ 1025.5 ms] final state: booking=confirmed flightB/seats=0 rooms=4
}
