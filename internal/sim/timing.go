package sim

import "fmt"

// Density selects the DRAM chip density, which sets the refresh
// latency tRFC and the number of rows per bank. The paper evaluates
// 16 Gbit and 32 Gbit chips with tRFC estimated at 590 ns and 1 us
// (footnote 6, following RAIDR's projection).
type Density int

// Chip densities of Figure 16.
const (
	Density16Gbit Density = iota + 1
	Density32Gbit
)

// String returns the density label used in experiment output.
func (d Density) String() string {
	switch d {
	case Density16Gbit:
		return "16Gbit"
	case Density32Gbit:
		return "32Gbit"
	default:
		return fmt.Sprintf("Density(%d)", int(d))
	}
}

// tRFCns returns the refresh-command latency in nanoseconds.
func (d Density) tRFCns() (float64, error) {
	switch d {
	case Density16Gbit:
		return 590, nil
	case Density32Gbit:
		return 1000, nil
	default:
		return 0, fmt.Errorf("sim: unknown density %d", int(d))
	}
}

// rowsPerBank returns the per-bank row count.
func (d Density) rowsPerBank() (int, error) {
	switch d {
	case Density16Gbit:
		return 32768, nil
	case Density32Gbit:
		return 65536, nil
	default:
		return 0, fmt.Errorf("sim: unknown density %d", int(d))
	}
}

// Timing holds the DDR3-1600 command timings the simulator uses, in
// nanoseconds (JEDEC DDR3 SDRAM specification; Table 2 of the paper).
type Timing struct {
	TRCD   float64 // activate to column command
	TRP    float64 // precharge
	TCL    float64 // column access strobe latency
	TBL    float64 // burst transfer of one 64 B line
	TREFI  float64 // refresh interval between REF commands
	CPUGHz float64 // core clock
}

// defaultTiming returns the simulator's default timing.
func defaultTiming() Timing {
	return Timing{
		TRCD:   13.75,
		TRP:    13.75,
		TCL:    13.75,
		TBL:    5,
		TREFI:  7812.5,
		CPUGHz: 3.2,
	}
}

// hitLatency is the service time of a row-buffer hit.
func (t Timing) hitLatency() float64 { return t.TCL + t.TBL }

// missLatency is the service time of a row-buffer miss (precharge,
// activate, read).
func (t Timing) missLatency() float64 { return t.TRP + t.TRCD + t.TCL + t.TBL }

// instNs returns the time to execute n instructions at one
// instruction per CPU cycle.
func (t Timing) instNs(n int) float64 { return float64(n) / t.CPUGHz }
