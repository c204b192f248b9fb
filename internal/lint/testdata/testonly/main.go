package main

import alias "fixture/internal/a"

func main() {
	var t alias.T
	t.Planted()
	alias.Used()
}
