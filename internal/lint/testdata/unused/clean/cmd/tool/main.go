// Command tool consumes packages lib and other.
package main

import (
	"fmt"

	"fixture/internal/lib"
	"fixture/internal/other"
)

func main() {
	sq := lib.Square{Side: 2}
	fmt.Println(sq, lib.Total([]lib.Shape{sq}), lib.Depth(3), other.Count() != nil)
}
