package onlinetest

import "parbor/internal/memctl"

// SetPassObserver installs a hook that sees every successful test
// pass's raw failures, for the external differential tests.
func SetPassObserver(s *Scheduler, f func([]memctl.BitAddr)) { s.passObserved = f }
