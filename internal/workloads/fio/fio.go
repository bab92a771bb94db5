// Package fio models the FIO storage-benchmark experiment of §5.1 (Fig. 8):
// random reads with a zipfian offset distribution through the Linux page
// cache, with the 4 GB page cache placed on either DDR or CXL memory.
//
// The latency anatomy per I/O:
//
//   - kernel path: syscall, page-cache lookup, file-system and block-layer
//     work — dominant for small blocks;
//   - hit path: copy the block out of page-cache memory (device-dependent);
//   - miss path: storage access (DDIO injects the data into the LLC, so the
//     memory device is mostly bypassed), plus — for large blocks — page-cache
//     fill traffic that drains from the LLC into the cache's memory device,
//     where CXL's limited write bandwidth begins to bite.
//
// This reproduces the paper's shape: ~3 % p99 increase at 4 KB, ~4.5 % at
// 8 KB, a shrinking gap through the mid sizes as storage latency dominates,
// and a renewed rise beyond 128 KB.
package fio

import (
	"context"
	"fmt"

	"cxlmem/internal/mem"
	"cxlmem/internal/sim"
	"cxlmem/internal/stats"
	"cxlmem/internal/topo"
)

// Config parameterizes the experiment.
type Config struct {
	// PageCacheBytes is the page cache size (paper: 4 GB).
	PageCacheBytes int64
	// FileBytes is the file set size.
	FileBytes int64
	// StorageLatency is the storage device's access latency.
	StorageLatency sim.Time
	// StorageGBs is the storage device's streaming bandwidth.
	StorageGBs float64
	// KernelBase is the fixed kernel cost per I/O.
	KernelBase sim.Time
	// KernelPerPage is the kernel cost per 4 KB page of the block.
	KernelPerPage sim.Time
	// KernelMemAccesses is the number of page-cache-metadata memory
	// accesses per I/O (radix tree, struct page) hitting the cache memory.
	KernelMemAccesses int
	// Seed drives the I/O generator.
	Seed uint64
}

// DefaultConfig mirrors the paper's setup: 4 GB page cache, zipfian access
// over a larger file set, NVMe-class storage.
func DefaultConfig() Config {
	return Config{
		PageCacheBytes:    4 << 30,
		FileBytes:         16 << 30,
		StorageLatency:    80 * sim.Microsecond,
		StorageGBs:        3.0,
		KernelBase:        12 * sim.Microsecond,
		KernelPerPage:     800 * sim.Nanosecond,
		KernelMemAccesses: 24,
		Seed:              17,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PageCacheBytes <= 0 || c.FileBytes <= 0 || c.StorageGBs <= 0 {
		return fmt.Errorf("fio: invalid config %+v", c)
	}
	return nil
}

// BlockSizes returns the swept block sizes of Fig. 8.
func BlockSizes() []int {
	return []int{4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10}
}

// BlockSizeByName resolves a scenario-spec block name ("4k" .. "512k") to
// its byte count; only the Fig. 8 sweep sizes are accepted.
func BlockSizeByName(name string) (int, error) {
	for _, b := range BlockSizes() {
		if name == fmt.Sprintf("%dk", b>>10) {
			return b, nil
		}
	}
	return 0, fmt.Errorf("fio: unknown block size %q (want 4k, 8k, ... 512k)", name)
}

// hitRate models the page-cache hit probability per I/O as a function of
// block size: small blocks enjoy the zipfian hot set; larger blocks span
// extents whose tails fall out of the cache. Calibrated to the paper's
// quoted points (76 % at 8 KB, 65 % at 128 KB).
func (c Config) hitRate(blockBytes int) float64 {
	base := 0.79 // 4 KB
	// -2.75 points per block-size doubling beyond 4 KB.
	steps := 0.0
	for b := 4 << 10; b < blockBytes; b *= 2 {
		steps++
	}
	h := base - 0.0275*steps
	if h < 0.4 {
		h = 0.4
	}
	return h
}

// Result is one Fig. 8 data point.
type Result struct {
	BlockBytes int
	P99        sim.Time
	HitRate    float64
}

// Run measures the latency distribution of ios random reads of blockBytes
// with the page cache on the device behind cachePath. Once ctx is done the
// run stops within a few thousand I/Os and returns ctx's error.
func Run(ctx context.Context, sys *topo.System, cachePath *topo.Path, cfg Config, blockBytes, ios int) (Result, error) {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if blockBytes < 4096 || ios <= 0 {
		panic("fio: invalid block size or I/O count")
	}
	rng := sim.NewRng(cfg.Seed)
	pages := blockBytes / 4096
	h := cfg.hitRate(blockBytes)

	// Copy bandwidth out of the page cache: a single-core streaming read
	// bounded by the device's amortized per-line latency.
	copyGBs := 64.0 / cachePath.ParallelLatency(mem.Load).Nanoseconds() * topo.EffectiveMLP / 4.8
	// Page-cache fill writeback for large blocks: DDIO injects into the
	// LLC; beyond 128 KB the fills overflow and drain to the cache memory
	// at its store bandwidth.
	fillGBs := cachePath.Device.PeakGBs() * cachePath.Device.EffInstr(mem.Store)

	kernel := cfg.KernelBase + sim.Time(pages)*cfg.KernelPerPage +
		sim.Time(cfg.KernelMemAccesses)*cachePath.SerialLatency(mem.Load)

	lats := make([]sim.Time, 0, ios)
	for i := 0; i < ios; i++ {
		if err := sim.Stopped(ctx, i); err != nil {
			return Result{}, err
		}
		var t sim.Time
		// Kernel cost with modest variability.
		t = sim.Time(float64(kernel) * (0.85 + 0.3*rng.Float64()))
		if rng.Float64() < h {
			// Hit: copy the block out of page-cache memory.
			t += sim.FromNanoseconds(float64(blockBytes) / copyGBs)
		} else {
			// Miss: storage access + transfer; DDIO targets the LLC.
			t += cfg.StorageLatency + sim.FromNanoseconds(float64(blockBytes)/cfg.StorageGBs)
			if blockBytes >= 128<<10 {
				// Large fills spill from the LLC into the cache memory.
				t += sim.FromNanoseconds(float64(blockBytes) / fillGBs)
			}
		}
		lats = append(lats, t)
	}
	return Result{
		BlockBytes: blockBytes,
		P99:        sim.FromNanoseconds(stats.PercentilesNanoseconds(lats, 99)[0]),
		HitRate:    h,
	}, nil
}
