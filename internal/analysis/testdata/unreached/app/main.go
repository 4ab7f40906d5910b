// Command app is the unreached fixture's only program: every function the
// library exposes is reached from here, except the seeded dead ones.
package main

import (
	"errors"
	"fmt"

	"fx/lib"
)

func main() {
	// Value.String is never called by name: fmt reaches it through
	// fmt.Stringer, an interface declared in an imported package.
	fmt.Println(lib.Value{N: 1})
	// WrapError.Unwrap is reached the same way, through errors.Is.
	if errors.Is(lib.Wrap(lib.ErrBase), lib.ErrBase) {
		fmt.Println(lib.Lookup("double")(2))
	}
}
