// Package fleetlog is a faultfs fixture: its path tail places it in
// the storage scope, so direct os file mutations must be flagged.
package fleetlog

import "os"

// Persist writes durable state with every banned call shape.
func Persist(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil { // want faultfs `os.WriteFile on a durable path bypasses the fault plane`
		return err
	}
	f, err := os.Create(path + ".idx") // want faultfs `os.Create on a durable path bypasses the fault plane`
	if err != nil {
		return err
	}
	defer f.Close()                                                    // want syncdrop `deferred Close discards its error`
	g, err := os.OpenFile(path+".seg", os.O_CREATE|os.O_WRONLY, 0o644) // want faultfs `os.OpenFile on a durable path bypasses the fault plane`
	if err != nil {
		return err
	}
	return g.Close()
}
