package a

import "testing"

func TestCalls(t *testing.T) {
	Planted()
	Allowed()
	Recursive(1)
	Shadowed()
	unexported()
}
