package a

// T's method and field share names with test-only functions; neither
// counts as a reference to them.
type T struct{ Shadowed int }

func (T) Planted() {}

func Used() { Bare() } // main calls Used, and Used calls Bare

func Bare() {}

func Planted() {} // only a_test.go calls it

func Allowed() {} // only a_test.go calls it, but it is allowlisted

func Recursive(n int) int { // only a_test.go and itself call it
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func Shadowed() {}

func unexported() {}
