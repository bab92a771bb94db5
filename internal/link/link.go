// Package link models the point-to-point interconnects of the evaluated
// system: the inter-socket UPI link used by the NUMA emulation of CXL memory,
// the CXL/PCIe 5.0 link to true CXL devices, and the on-die mesh.
//
// The paper's observation O1 hinges on one structural property — all of these
// links are full duplex, so a stream of independent requests can overlap
// command (outbound) and data (inbound) transfers — while a serialized
// pointer chase pays the full round trip on every access. Traverse prices one
// direction of a serialized access; topo.Path chains traversals into a path's
// serial latency and amortizes it over the pipelined requests in flight.
package link

import (
	"fmt"

	"cxlmem/internal/sim"
)

// Link is a full-duplex point-to-point interconnect.
type Link struct {
	// Name identifies the link in diagnostics ("UPI", "CXL x8", "mesh").
	Name string
	// Propagation is the one-way traversal latency, including the physical
	// layer, link layer and transaction layer of the protocol stack.
	Propagation sim.Time
	// BandwidthPerDir is the usable bandwidth of each direction in bytes
	// per nanosecond (numerically equal to GB/s).
	BandwidthPerDir float64
}

// Validate reports a descriptive error for physically meaningless parameters.
func (l *Link) Validate() error {
	if l.Propagation < 0 {
		return fmt.Errorf("link %s: negative propagation %v", l.Name, l.Propagation)
	}
	if l.BandwidthPerDir <= 0 {
		return fmt.Errorf("link %s: non-positive bandwidth %v", l.Name, l.BandwidthPerDir)
	}
	return nil
}

// Traverse returns the latency for moving payload bytes across one direction
// of the link as part of a serialized (dependent) access: propagation plus
// serialization of the payload.
func (l *Link) Traverse(payloadBytes int) sim.Time {
	return l.Propagation + l.serialization(payloadBytes)
}

func (l *Link) serialization(payloadBytes int) sim.Time {
	if payloadBytes <= 0 {
		return 0
	}
	ns := float64(payloadBytes) / l.BandwidthPerDir
	return sim.FromNanoseconds(ns)
}

// UPI returns the inter-socket UPI link of the dual-socket SPR system.
// ~20 ns per traversal and roughly 62 GB/s usable per direction for the
// 3-link x24 configuration (the emulated-CXL experiments traverse it for
// every access to the remote socket's DRAM).
func UPI() *Link {
	return &Link{
		Name:            "UPI",
		Propagation:     20 * sim.Nanosecond,
		BandwidthPerDir: 62.4,
	}
}

// CXLx8 returns a CXL 1.1 link over PCIe 5.0 x8 — the configuration of the
// paper's CXL memory devices: 32 GB/s raw per direction and ~40 ns port
// latency per traversal through the Flex Bus PHY + CXL link/transaction
// layers (paper §1 cites ~40 ns for the PCIe 5.0 stack).
func CXLx8() *Link {
	return &Link{
		Name:            "CXL x8",
		Propagation:     40 * sim.Nanosecond,
		BandwidthPerDir: 32,
	}
}

// CXLx16 returns a CXL 1.1 link over PCIe 5.0 x16 — the wide-link
// configuration of multi-expander platforms: double the x8 lane count, so
// 64 GB/s raw per direction, through the same Flex Bus PHY + CXL stack
// (lane count does not change the protocol-layer propagation).
func CXLx16() *Link {
	return &Link{
		Name:            "CXL x16",
		Propagation:     40 * sim.Nanosecond,
		BandwidthPerDir: 64,
	}
}

// Mesh returns the on-die mesh segment between a core's CHA and a memory
// controller or the CXL root port: a couple of nanoseconds and effectively
// unconstrained bandwidth at the granularity we model.
func Mesh() *Link {
	return &Link{
		Name:            "mesh",
		Propagation:     2 * sim.Nanosecond,
		BandwidthPerDir: 400,
	}
}
