// Command outside lives in its own module, which imports the fixture
// through a replace directive.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	fmt.Println(lib.ForOutside())
}
