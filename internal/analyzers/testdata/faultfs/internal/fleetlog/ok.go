package fleetlog

import "os"

// ReadBack only reads; the seam requirement covers mutations.
func ReadBack(path string) ([]byte, error) {
	return os.ReadFile(path)
}
