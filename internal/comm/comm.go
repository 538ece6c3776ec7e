// Package comm models the inter-site network of the CARAT testbed: the
// latency of a message between TM servers over a shared 10 Mb/s Ethernet,
// and which sites a network partition leaves able to reach each other.
//
// The testbed charges each inter-site message a delay drawn from a
// pluggable DelayModel. The paper's two-node experiments measured a
// negligible communication delay α and dropped it from the computation;
// the default model here is therefore zero delay, but an
// Almes–Lazowska-style Ethernet contention model [ALME79] is provided for
// configurations where α matters (many nodes, long messages).
package comm

import "math"

// NodeID identifies a site.
type NodeID int

// DelayModel yields the end-to-end latency of one message.
type DelayModel interface {
	// Delay returns the network delay for a message of the given size,
	// given the current network utilization in [0, 1).
	Delay(bytes int, utilization float64) float64
}

// ZeroDelay delivers instantly — the paper's operating point for two nodes.
type ZeroDelay struct{}

// Delay implements DelayModel.
func (ZeroDelay) Delay(int, float64) float64 { return 0 }

// FixedDelay delivers every message after a constant latency.
type FixedDelay struct{ D float64 }

// Delay implements DelayModel.
func (f FixedDelay) Delay(int, float64) float64 { return f.D }

// Ethernet approximates a CSMA/CD channel following the flavor of the
// Almes–Lazowska Ethernet model: the raw transmission time is inflated by
// the contention-interval overhead (≈ e slot times per packet at high
// load), and queueing for the shared channel is approximated as M/D/1.
//
// All times are in the same unit the simulation uses (milliseconds in the
// CARAT configuration).
type Ethernet struct {
	BandwidthBitsPerMS float64 // channel capacity, bits per millisecond
	SlotTime           float64 // collision slot (2x end-to-end propagation)
	Propagation        float64 // one-way propagation delay

	// Hosts is the number of stations contending for the shared channel.
	// 0 keeps the historical saturation constant (≈ e slot times wasted
	// per packet regardless of fleet size — the byte-pinned default).
	// 1 models a dedicated point-to-point link: no contention interval and
	// no channel queueing, so delay degenerates to transmission plus
	// propagation. Q ≥ 2 uses the Almes–Lazowska contention coefficient
	// (1−A)/A with A = (1−1/Q)^(Q−1), which grows from 1.0 at Q=2 toward
	// e−1 as Q→∞ — inflation monotone in the host count.
	Hosts int
}

// DefaultEthernet returns the 10 Mb/s Ethernet of the testbed: 10^4 bits/ms,
// 51.2 µs slot time, ~10 µs propagation.
func DefaultEthernet() Ethernet {
	return Ethernet{BandwidthBitsPerMS: 1e4, SlotTime: 0.0512, Propagation: 0.01}
}

// transmission returns the raw wire time for a message.
func (e Ethernet) transmission(bytes int) float64 {
	bits := float64(bytes * 8)
	if bits < 512 { // minimum Ethernet frame
		bits = 512
	}
	return bits / e.BandwidthBitsPerMS
}

// contentionCoeff returns the slot-time multiplier of the contention
// interval: the historical saturation constant when Hosts is unset, the
// host-count-dependent Almes–Lazowska coefficient otherwise.
func (e Ethernet) contentionCoeff() float64 {
	if e.Hosts <= 0 {
		// At saturation roughly e ≈ 2.718 slot times are wasted per
		// successful packet.
		return 2.718
	}
	q := float64(e.Hosts)
	a := math.Pow(1-1/q, q-1)
	return (1 - a) / a
}

// Breakdown decomposes the channel's mean delay at utilization u into its
// queueing-center components: raw transmission time, contention-interval
// inflation, and M/D/1 queueing delay for the shared channel. Propagation
// is excluded; MeanDelay is the sum of all three plus Propagation.
func (e Ethernet) Breakdown(bytes int, u float64) (raw, inflation, queue float64) {
	raw = e.transmission(bytes)
	if e.Hosts == 1 {
		// A dedicated link: nothing contends, nothing queues.
		return raw, 0, 0
	}
	inflation = e.contentionCoeff() * e.SlotTime * u
	svc := raw + inflation
	if u < 0 {
		u = 0
	}
	if u > 0.95 {
		u = 0.95
	}
	queue = u * svc / (2 * (1 - u))
	return raw, inflation, queue
}

// MeanDelay returns the expected delay at utilization u: service time
// inflated by contention plus M/D/1 queueing delay plus propagation. The
// analytical model takes α from it.
func (e Ethernet) MeanDelay(bytes int, u float64) float64 {
	raw, inflation, queue := e.Breakdown(bytes, u)
	return raw + inflation + queue + e.Propagation
}

// Delay implements DelayModel. The model is deterministic given load.
func (e Ethernet) Delay(bytes int, u float64) float64 { return e.MeanDelay(bytes, u) }
