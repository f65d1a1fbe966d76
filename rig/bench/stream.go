package bench

import (
	"fmt"
	"io"
)

// Stream prints the first n operations of one user's generated stream: the
// statements the program would receive, without running anything. The same
// seed prints the same bytes.
func Stream(w io.Writer, workload string, seed int64, user, n int) error {
	wl, err := newWorkload(workload)
	if err != nil {
		return err
	}
	if user < 0 || user >= Users {
		return fmt.Errorf("user %d out of range 0..%d", user, Users-1)
	}
	g := wl.newUser(user, userRNG(seed, user))
	for i := 0; i < n; i++ {
		o := g.next()
		for _, s := range o.stmts {
			if _, err := fmt.Fprintf(w, "%d\t%s\t%s\t%s\n", i, o.kind, s.lang, s.text); err != nil {
				return err
			}
		}
		// The stream does not depend on replies; moving the model forward
		// as if each operation had succeeded keeps later checks meaningful.
		if o.applied != nil {
			o.applied()
		}
	}
	return nil
}
