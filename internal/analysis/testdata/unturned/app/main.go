// Command app is the unturned fixture's only program: it turns the
// library's knobs, except the seeded unturned ones.
package main

import (
	"fmt"

	"fx/lib"
)

func main() {
	opts := lib.DefaultOptions("app")
	// One chained selector sets both Options.Guard and Guard.Enabled.
	opts.Guard.Enabled = false
	fmt.Println(lib.Run(opts))
}
