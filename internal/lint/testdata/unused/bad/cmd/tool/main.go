// Command tool consumes the used half of package dead.
package main

import "fixture/internal/dead"

func main() {
	_ = dead.Live().Size()
}
