package succinct

// CountSelect1 switches counting of Select1 calls on or off and zeroes
// the count. The count is a plain variable: a test that switches it on
// must make its Select1 calls on one goroutine, and run alone.
func CountSelect1(on bool) { countSelect1, select1Calls = on, 0 }

// Select1Calls returns the Select1 calls counted since CountSelect1.
func Select1Calls() int { return select1Calls }
