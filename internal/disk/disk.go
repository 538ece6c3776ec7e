// Package disk models the database and log disks of the CARAT testbed.
//
// A Device is a FCFS single-server station whose per-operation service time
// is drawn from a pluggable ServiceModel. The paper's measurements fold seek,
// rotation and transfer into a single mean per block I/O (Table 2: 28 ms on
// Node A's RM05, 40 ms on Node B's RP06 for a read), so the default profiles
// here are calibrated to those means; a detailed seek+rotation model is also
// provided for studies that move beyond the paper.
package disk

import (
	"fmt"
	"math"

	"carat/internal/rng"
	"carat/internal/sim"
)

// OpKind distinguishes the operations CARAT issues to a disk.
type OpKind int

const (
	// Read fetches one database block.
	Read OpKind = iota
	// Write rewrites one database block in place.
	Write
	// LogWrite appends one journal/log block (sequential).
	LogWrite
	// ForceWrite synchronously flushes a commit record (2PC force-write).
	ForceWrite
)

// String returns the operation name.
func (k OpKind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case LogWrite:
		return "logwrite"
	case ForceWrite:
		return "forcewrite"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// ServiceModel yields a service time for one disk operation. Block
// addresses let positional models account for seek distance.
type ServiceModel interface {
	// Time returns the service time for an operation on the given block.
	Time(r *rng.Rand, op OpKind, block int) float64
	// Mean returns the long-run mean service time for the operation,
	// used to parameterize the analytical model consistently.
	Mean(op OpKind) float64
}

// Fixed is a deterministic service model: every operation of a kind takes
// exactly its configured time.
type Fixed struct {
	ReadTime  float64
	WriteTime float64
	LogTime   float64
}

// Time implements ServiceModel.
func (f Fixed) Time(_ *rng.Rand, op OpKind, _ int) float64 { return f.Mean(op) }

// Mean implements ServiceModel.
func (f Fixed) Mean(op OpKind) float64 {
	switch op {
	case Read:
		return f.ReadTime
	case Write:
		return f.WriteTime
	default:
		return f.LogTime
	}
}

// Exponential draws each service time from an exponential distribution
// around the configured means, the classical queueing-model assumption.
type Exponential struct {
	ReadMean  float64
	WriteMean float64
	LogMean   float64
}

// Time implements ServiceModel.
func (e Exponential) Time(r *rng.Rand, op OpKind, _ int) float64 {
	return r.Exp(e.Mean(op))
}

// Mean implements ServiceModel.
func (e Exponential) Mean(op OpKind) float64 {
	switch op {
	case Read:
		return e.ReadMean
	case Write:
		return e.WriteMean
	default:
		return e.LogMean
	}
}

// SeekRotational is a positional model: service time = seek (a function of
// cylinder distance) + rotational latency (uniform in one revolution) +
// fixed transfer time. Log writes are sequential and skip the seek.
type SeekRotational struct {
	Cylinders      int     // number of cylinders
	BlocksPerCyl   int     // blocks per cylinder
	MinSeek        float64 // single-track seek time
	MaxSeek        float64 // full-stroke seek time
	RevolutionTime float64 // one platter revolution
	TransferTime   float64 // one-block transfer

	lastCyl int
}

// Time implements ServiceModel. It mutates the head position, so a
// SeekRotational must not be shared between devices.
func (s *SeekRotational) Time(r *rng.Rand, op OpKind, block int) float64 {
	rot := r.Float64() * s.RevolutionTime
	if op == LogWrite || op == ForceWrite {
		// Sequential append: no seek, half-rotation on average already
		// captured by the uniform draw.
		return rot + s.TransferTime
	}
	cyl := 0
	if s.BlocksPerCyl > 0 {
		cyl = block / s.BlocksPerCyl
		if s.Cylinders > 0 {
			cyl %= s.Cylinders
		}
	}
	dist := cyl - s.lastCyl
	if dist < 0 {
		dist = -dist
	}
	s.lastCyl = cyl
	seek := 0.0
	if dist > 0 && s.Cylinders > 1 {
		frac := float64(dist) / float64(s.Cylinders-1)
		seek = s.MinSeek + (s.MaxSeek-s.MinSeek)*math.Sqrt(frac)
	}
	return seek + rot + s.TransferTime
}

// Mean implements ServiceModel with the standard uniform-position
// approximation (expected seek over one third of the stroke).
func (s *SeekRotational) Mean(op OpKind) float64 {
	if op == LogWrite || op == ForceWrite {
		return s.RevolutionTime/2 + s.TransferTime
	}
	seek := s.MinSeek + (s.MaxSeek-s.MinSeek)*math.Sqrt(1.0/3.0)
	return seek + s.RevolutionTime/2 + s.TransferTime
}

// Device is one disk: a single-server FCFS queue plus a service model and
// an operation mix breakdown for reporting.
type Device struct {
	station *sim.Resource
	model   ServiceModel
	r       *rng.Rand

	// slow > 1 stretches every service time by that factor — a gray failure
	// (degraded controller, failing media retries). Values <= 1 leave the
	// drawn times bit-exact, so an unset factor changes nothing.
	slow float64

	reads, writes, logs int64
}

// New creates a device attached to env.
func New(env *sim.Env, name string, model ServiceModel, r *rng.Rand) *Device {
	return &Device{
		station: sim.NewResource(env, name, 1),
		model:   model,
		r:       r,
	}
}

// SetSlowdown sets the gray-failure service-time multiplier; factors <= 1
// restore full speed.
func (d *Device) SetSlowdown(f float64) { d.slow = f }

// Do performs one disk operation: queue FCFS, hold for the drawn service
// time, release. The queue wait is interruptible.
func (d *Device) Do(p *sim.Proc, op OpKind, block int) error {
	r, t := d.Visit(op, block)
	if err := r.Use(p, t); err != nil {
		return err
	}
	d.Done(op)
	return nil
}

// Visit draws the service time of one operation on block and returns it
// with the station that serves it, for a Use or a visit chain (see
// sim.Proc.Visits). Done counts the operation once its visit is over.
func (d *Device) Visit(op OpKind, block int) (*sim.Resource, float64) {
	t := d.model.Time(d.r, op, block)
	if d.slow > 1 {
		t *= d.slow
	}
	return d.station, t
}

// Done counts one completed operation of kind op.
func (d *Device) Done(op OpKind) {
	switch op {
	case Read:
		d.reads++
	case Write:
		d.writes++
	default:
		d.logs++
	}
}

// Counts returns the number of completed reads, writes, and log writes.
func (d *Device) Counts() (reads, writes, logs int64) {
	return d.reads, d.writes, d.logs
}

// IORate returns completed operations per unit time at time t.
func (d *Device) IORate(t float64) float64 { return d.station.Throughput(t) }

// Utilization returns the busy fraction at time t.
func (d *Device) Utilization(t float64) float64 { return d.station.Utilization(t) }

// ResetStats truncates the statistics window at time t.
func (d *Device) ResetStats(t float64) {
	d.station.ResetStats(t)
	d.reads, d.writes, d.logs = 0, 0, 0
}

// Profiles for the two database disks used in the paper's experiments.
// Table 2 folds all positioning into one mean per block I/O: a read costs
// 28 ms on Node A (DEC RM05) and 40 ms on Node B (DEC RP06). Writes cost the
// same as reads at the device level — the 84/120 ms update figures in Table 2
// are three I/Os (read + journal write + in-place write), which the testbed
// issues as three separate operations.

// ProfileRM05 returns Node A's database-disk service model.
func ProfileRM05() ServiceModel {
	return Fixed{ReadTime: 28, WriteTime: 28, LogTime: 28}
}

// ProfileRP06 returns Node B's database-disk service model.
func ProfileRP06() ServiceModel {
	return Fixed{ReadTime: 40, WriteTime: 40, LogTime: 40}
}
