package bench

import "runtime"

// HostMeta records the machine a wall-clock measurement was taken on, so the
// BENCH_*.json trajectories stay interpretable when runs come from different
// hosts: an events/sec row means nothing without the core count and
// toolchain behind it.
type HostMeta struct {
	// CPUs is the number of logical CPUs usable by this process
	// (runtime.NumCPU at measurement time).
	CPUs int `json:"cpus"`
	// GOMAXPROCS is the scheduler's parallelism limit during the run.
	GOMAXPROCS int `json:"gomaxprocs"`
	// GoVersion is the toolchain that built the measuring binary.
	GoVersion string `json:"go_version"`
	// OS and Arch are the runtime GOOS/GOARCH.
	OS   string `json:"os"`
	Arch string `json:"arch"`
}

// Host captures the current machine's metadata.
func Host() HostMeta {
	return HostMeta{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
}
