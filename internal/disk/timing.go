package disk

import "time"

// TimingModel computes the simulated duration of one device access.
type TimingModel interface {
	// Access returns the time for an access of op that moves blocks
	// consecutive blocks from bn on (a track read or a write run moves
	// more than one), with the head currently at block head. cfg gives
	// the geometry.
	Access(op Op, head, bn, blocks int, cfg Config) time.Duration
}

// FixedTiming charges a constant latency per access — the model the Bridge
// paper used ("the delay has been set to 15 ms, to approximate the
// performance of a CDC Wren-class hard disk").
type FixedTiming struct {
	Latency time.Duration
}

var _ TimingModel = FixedTiming{}

// Access implements TimingModel.
func (t FixedTiming) Access(Op, int, int, int, Config) time.Duration { return t.Latency }

// SeekRotateTiming is a richer deterministic model: a base command
// overhead, a seek cost proportional to track distance, an average
// half-rotation, and a transfer time per block moved. It exists for ablations
// showing that Bridge's speedups do not depend on the fixed-latency
// simplification.
type SeekRotateTiming struct {
	// Base is per-command controller overhead.
	Base time.Duration
	// SeekPerTrack is the head movement cost per track of distance.
	SeekPerTrack time.Duration
	// Rotation is one full platter rotation; half is charged per access
	// as the deterministic average rotational delay.
	Rotation time.Duration
	// TransferPerBlock is the media transfer time per block.
	TransferPerBlock time.Duration
}

var _ TimingModel = SeekRotateTiming{}

// WrenSeekRotate returns constants loosely matching a CDC Wren-class drive:
// ~28 ms full-stroke seek scaled per track, 3600 RPM rotation, and a
// transfer rate around 600 KB/s.
func WrenSeekRotate() SeekRotateTiming {
	return SeekRotateTiming{
		Base:             1 * time.Millisecond,
		SeekPerTrack:     30 * time.Microsecond,
		Rotation:         16667 * time.Microsecond, // 3600 RPM
		TransferPerBlock: 1700 * time.Microsecond,  // ~600 KB/s at 1 KB blocks
	}
}

// Access implements TimingModel.
func (t SeekRotateTiming) Access(op Op, head, bn, blocks int, cfg Config) time.Duration {
	bpt := cfg.BlocksPerTrack
	if bpt <= 0 {
		bpt = 1
	}
	dist := head/bpt - bn/bpt
	if dist < 0 {
		dist = -dist
	}
	return t.Base + time.Duration(dist)*t.SeekPerTrack + t.Rotation/2 + time.Duration(blocks)*t.TransferPerBlock
}
