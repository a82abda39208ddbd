// Package hw holds the hardware descriptors for the processors, GPUs and
// host-device interconnects of the systems evaluated in the paper (Table II)
// plus the Table I devices. All figures are public spec-sheet numbers, the
// same ones the paper itself quotes (e.g. 1,536 FP64 FLOPs/cycle for the
// Xeon 8468 socket, 896 for the EPYC 7A53, 1,152 for Grace).
//
// These descriptors feed the cpumodel/gpumodel/xfer performance models: the
// reproduction does not pretend to run on this silicon, it models the
// first-order behaviour (roofline compute, cache and memory bandwidth,
// interconnect transfer) that the paper's offload thresholds derive from.
package hw

// CPUSpec describes one CPU socket.
type CPUSpec struct {
	Name string
	// Cores usable per socket (LUMI exposes 56 of 64; see §IV).
	Cores int
	// FreqGHz is the sustained all-core frequency used for peak math.
	FreqGHz float64
	// FP64PerCycle is the socket-wide FP64 FLOPs/cycle the paper quotes.
	// FP32 peak is taken as twice the FP64 peak.
	FP64PerCycle int
	// MemBWGBs is the socket's DRAM bandwidth in GB/s.
	MemBWGBs float64
	// PerCoreMemBWGBs caps how much DRAM bandwidth a single core can pull;
	// it sets single-thread streaming performance (AOCL's serial GEMV).
	PerCoreMemBWGBs float64
	// CacheMB is the socket's last-level cache capacity in MiB; the GEMV
	// model uses it to locate the in-cache to in-DRAM performance cliff.
	CacheMB float64
	// CacheBWGBs is the aggregate LLC bandwidth in GB/s.
	CacheBWGBs float64
	// PerCoreCacheBWGBs caps single-core LLC bandwidth.
	PerCoreCacheBWGBs float64
}

// PeakGFLOPS returns the socket peak in GFLOP/s for 8- or 4-byte elements.
func (c CPUSpec) PeakGFLOPS(elemSize int) float64 {
	peak := c.FreqGHz * float64(c.FP64PerCycle)
	if elemSize == 4 {
		peak *= 2
	}
	return peak
}

// GPUSpec describes one GPU device (a single tile/die where the paper
// targets one, per §IV: one PVC tile, one MI250X GCD, one GH200 H100).
type GPUSpec struct {
	Name string
	// FP64GFLOPS and FP32GFLOPS are vector-unit peaks (no matrix engines:
	// the paper's kernels run the classic BLAS paths).
	FP64GFLOPS float64
	FP32GFLOPS float64
	// HBMGBs is device memory bandwidth in GB/s.
	HBMGBs float64
	// LaunchLatencyUS is the per-kernel launch cost in microseconds.
	LaunchLatencyUS float64
	// OccupancyRampElems is the number of output elements (m*n) at which
	// the device reaches roughly half of its peak efficiency; it captures
	// how much parallelism the device needs before the curve turns up.
	OccupancyRampElems float64
	// GemvRampRows is the GEMV analogue: a GEMV exposes only m rows of
	// parallelism, and devices ramp on rows much earlier than on m*n tiles.
	GemvRampRows float64
}

// Peak returns the device peak GFLOP/s for the element size.
func (g GPUSpec) Peak(elemSize int) float64 {
	if elemSize == 4 {
		return g.FP32GFLOPS
	}
	return g.FP64GFLOPS
}

// LinkSpec describes the host-device interconnect.
type LinkSpec struct {
	Name string
	// BWGBs is per-direction bandwidth in GB/s.
	BWGBs float64
	// LatencyUS is the fixed per-transfer latency in microseconds.
	LatencyUS float64
	// PinnedSpeedup is how much faster pinned (page-locked) transfers run
	// than pageable ones; the benchmark always pins (§III-B), so effective
	// bandwidth is BWGBs and pageable would be BWGBs/PinnedSpeedup.
	PinnedSpeedup float64
}

// TransferTimeUS returns the time to move bytes across the link once, in
// microseconds, using pinned buffers.
func (l LinkSpec) TransferTimeUS(bytes int64) float64 {
	return l.LatencyUS + float64(bytes)/(l.BWGBs*1e3)/1e6*1e6
}

// --- CPU presets ----------------------------------------------------------

// XeonPlatinum8468 is DAWN's CPU socket: 48 cores, 1,536 FP64 FLOPs/cycle.
var XeonPlatinum8468 = CPUSpec{
	Name:              "Intel Xeon Platinum 8468",
	Cores:             48,
	FreqGHz:           2.1,
	FP64PerCycle:      1536,
	MemBWGBs:          307,
	PerCoreMemBWGBs:   30,
	CacheMB:           105,
	CacheBWGBs:        2400,
	PerCoreCacheBWGBs: 70,
}

// EpycTrento7A53 is LUMI's CPU socket: 56 usable cores, 896 FP64
// FLOPs/cycle.
var EpycTrento7A53 = CPUSpec{
	Name:              "AMD EPYC 7A53",
	Cores:             56,
	FreqGHz:           2.0,
	FP64PerCycle:      896,
	MemBWGBs:          204,
	PerCoreMemBWGBs:   42,
	CacheMB:           256,
	CacheBWGBs:        1800,
	PerCoreCacheBWGBs: 48,
}

// GraceCPU is the Grace half of a GH200 superchip: 72 cores, 1,152 FP64
// FLOPs/cycle, LPDDR5X memory.
var GraceCPU = CPUSpec{
	Name:              "NVIDIA Grace",
	Cores:             72,
	FreqGHz:           3.4,
	FP64PerCycle:      1152,
	MemBWGBs:          500,
	PerCoreMemBWGBs:   40,
	CacheMB:           114,
	CacheBWGBs:        2600,
	PerCoreCacheBWGBs: 90,
}

// Epyc7543P is the Table I AOCL host.
var Epyc7543P = CPUSpec{
	Name:              "AMD EPYC 7543P",
	Cores:             32,
	FreqGHz:           2.8,
	FP64PerCycle:      512,
	MemBWGBs:          204,
	PerCoreMemBWGBs:   40,
	CacheMB:           256,
	CacheBWGBs:        1600,
	PerCoreCacheBWGBs: 48,
}

// --- GPU presets -----------------------------------------------------------

// IntelMax1550Tile is one tile of DAWN's Intel Data Center GPU Max 1550
// (explicit scaling, §IV and Appendix A).
var IntelMax1550Tile = GPUSpec{
	Name:               "Intel Data Center GPU Max 1550 (1 tile)",
	FP64GFLOPS:         26000,
	FP32GFLOPS:         40000,
	HBMGBs:             1640,
	LaunchLatencyUS:    8,
	OccupancyRampElems: 3.0e5,
	GemvRampRows:       5.0e4,
}

// MI250XGCD is one Graphics Compute Die of LUMI's MI250X.
var MI250XGCD = GPUSpec{
	Name:               "AMD MI250X (1 GCD)",
	FP64GFLOPS:         23950,
	FP32GFLOPS:         23950,
	HBMGBs:             1600,
	LaunchLatencyUS:    6,
	OccupancyRampElems: 1.5e5,
	GemvRampRows:       3.5e5,
}

// GH200H100 is the Hopper half of a GH200 superchip.
var GH200H100 = GPUSpec{
	Name:               "NVIDIA GH200 (H100)",
	FP64GFLOPS:         34000,
	FP32GFLOPS:         67000,
	HBMGBs:             4000,
	LaunchLatencyUS:    3.5,
	OccupancyRampElems: 1.5e5,
	GemvRampRows:       1.2e5,
}

// A100SXM40 is the Table I cuBLAS device.
var A100SXM40 = GPUSpec{
	Name:               "NVIDIA A100 40GB SXM",
	FP64GFLOPS:         9700,
	FP32GFLOPS:         19500,
	HBMGBs:             1555,
	LaunchLatencyUS:    5,
	OccupancyRampElems: 5.0e5,
	GemvRampRows:       2.0e5,
}

// MI250XFull is the Table I rocBLAS device (both GCDs visible, but a single
// GEMM runs on one GCD; Table I's high run-times reflect the weaker
// effective throughput for the thin-K shape).
var MI250XFull = MI250XGCD

// --- Link presets -----------------------------------------------------------

// PCIe5x16 is DAWN's host-GPU link.
var PCIe5x16 = LinkSpec{Name: "PCIe 5.0 x16", BWGBs: 52, LatencyUS: 10, PinnedSpeedup: 2.2}

// InfinityFabricCPU2GPU is LUMI's host-GCD link (one IF link pair,
// gpu-bind=closest).
var InfinityFabricCPU2GPU = LinkSpec{Name: "Infinity Fabric", BWGBs: 36, LatencyUS: 25, PinnedSpeedup: 2.0}

// NVLinkC2C is the GH200 on-package link: 450 GB/s per direction.
var NVLinkC2C = LinkSpec{Name: "NVLink-C2C", BWGBs: 450, LatencyUS: 0.8, PinnedSpeedup: 1.0}

// PCIe4x16 is the Table I A100 host link.
var PCIe4x16 = LinkSpec{Name: "PCIe 4.0 x16", BWGBs: 26, LatencyUS: 10, PinnedSpeedup: 2.2}
