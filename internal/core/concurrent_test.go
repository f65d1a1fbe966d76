package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentSessionsIsolatedCurrency: MLDS was designed single-user with
// multi-user as future work; this implementation provides it. Each session
// owns its CIT and UWA, so concurrent run-units navigating different parts
// of the database never disturb each other; only the kernel is shared.
func TestConcurrentSessionsIsolatedCurrency(t *testing.T) {
	s := newSystem(t)
	newLoadedUniv(t, s)

	const users = 8
	var wg sync.WaitGroup
	errs := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			sess, err := s.Open("university", "dml")
			if err != nil {
				errs <- err
				return
			}
			// Each user navigates a different student and re-reads its own
			// current 50 times; a shared CIT would interleave keys.
			name := fmt.Sprintf("Student %04d", u)
			if _, err := sess.Execute("MOVE '" + name + "' TO pname IN person"); err != nil {
				errs <- err
				return
			}
			out, err := sess.Execute("FIND ANY person USING pname IN person")
			if err != nil {
				errs <- err
				return
			}
			myKey := out.DML.Key
			for i := 0; i < 50; i++ {
				got, err := sess.Execute("GET pname IN person")
				if err != nil {
					errs <- fmt.Errorf("user %d: %w", u, err)
					return
				}
				if got.DML.Values["pname"].AsString() != name {
					errs <- fmt.Errorf("user %d: current drifted to %v", u, got.DML.Values["pname"])
					return
				}
				if CIT(sess).RunUnit.Key != myKey {
					errs <- fmt.Errorf("user %d: run-unit key drifted", u)
					return
				}
			}
			errs <- nil
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentMixedInterfaces runs Daplex readers against DML writers on
// one kernel; the kernel's locking must keep every request atomic.
func TestConcurrentMixedInterfaces(t *testing.T) {
	s := newSystem(t)
	newLoadedUniv(t, s)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for u := 0; u < 4; u++ {
		wg.Add(2)
		go func() { // reader
			defer wg.Done()
			dap, err := s.Open("university", "daplex")
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 25; i++ {
				rows, err := dap.Execute("FOR EACH course PRINT credits;")
				if err != nil {
					errs <- err
					return
				}
				for _, r := range rows.Rows {
					if len(r.Values["credits"]) != 1 {
						errs <- fmt.Errorf("torn read: %v", r.Values)
						return
					}
				}
			}
			errs <- nil
		}()
		go func(u int) { // writer
			defer wg.Done()
			dap, err := s.Open("university", "daplex")
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 25; i++ {
				stmt := fmt.Sprintf("LET credits OF course WHERE title = 'Course %03d' BE %d;", 1+u, 1+i%5)
				if _, err := dap.Execute(stmt); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
