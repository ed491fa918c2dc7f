// Per-host kernel calibration. The kernels carry two speed knobs whose
// best values are hardware facts, not algorithm facts: the
// merge-vs-gallop length disparity (gallopRatio) and the tiled layout's
// sparse/dense per-tile crossover (tileSparseMax). `cmd/calibrate`
// measures both on the host and writes them to a small JSON file; the
// binaries load it from the FIM_CALIBRATION env var or a -calibration
// flag, falling back to the compiled-in defaults measured on the
// reference host. Every knob is a pure speed dial — any legal value
// yields identical sets — so a stale or missing calibration file can
// cost time but never correctness.

package tidset

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
)

// Compiled-in defaults. The gallop ratio comes from
// results/CALIBRATE_gallop.txt on the reference host. The tile
// crossover default is the memory-neutral point — a sparse tile of 16
// u8 offsets occupies exactly the 16 bytes of a dense bitmap — which
// favors footprint; hosts that favor speed load the measured crossover
// from calibrate -tiles (results/CALIBRATE_tiles.txt records it much
// lower on the reference host, where the 2-word AND beats the branchy
// u8 merge from small cardinalities on).
const (
	defaultGallopRatio   = 8
	defaultTileSparseMax = 16
)

// The live knobs. Atomics because calibration may be applied by a main
// goroutine while a server is already mining on others; kernels load
// them once per call, never per element.
var (
	gallopRatioV   atomic.Int32
	tileSparseMaxV atomic.Int32
)

func init() {
	gallopRatioV.Store(defaultGallopRatio)
	tileSparseMaxV.Store(defaultTileSparseMax)
}

// gallopRatio is the length disparity at which intersection switches
// from a linear merge to exponential search over the longer operand.
func gallopRatio() int { return int(gallopRatioV.Load()) }

// TileSparseMax is the per-tile cardinality at or below which a tile is
// stored (and intersected) as sorted u8 offsets rather than a 128-bit
// bitmap. Exported read-only for cmd/calibrate's sweep reporting.
func TileSparseMax() int { return int(tileSparseMaxV.Load()) }

// CalibrationEnv names the environment variable holding the path of a
// calibration file to load at startup.
const CalibrationEnv = "FIM_CALIBRATION"

// Calibration is the on-disk knob file. Zero-valued fields mean "keep
// the current setting", so a file may carry just the knobs the host
// sweep actually measured.
type Calibration struct {
	// GallopRatio: intersection switches to galloping when
	// len(long)/len(short) reaches this. Must be ≥ 2.
	GallopRatio int `json:"gallop_ratio,omitempty"`
	// TileBits records the tile width the sweep was run for. The width
	// is a compile-time property of the tiled layout (u8 in-tile
	// offsets and 2-word bitmaps assume 128), so a file asking for a
	// different width is rejected rather than silently misapplied.
	TileBits int `json:"tile_bits,omitempty"`
	// TileSparseMax: tiles with at most this many TIDs use the sparse
	// u8-offset form. Must be in [1, TileBits].
	TileSparseMax int `json:"tile_sparse_max,omitempty"`
}

// CurrentCalibration snapshots the live knob values.
func CurrentCalibration() Calibration {
	return Calibration{
		GallopRatio:   gallopRatio(),
		TileBits:      TileBits,
		TileSparseMax: TileSparseMax(),
	}
}

// ApplyCalibration validates c and installs its non-zero knobs,
// returning the previous settings so callers (tests, calibrate sweeps)
// can restore them.
func ApplyCalibration(c Calibration) (prev Calibration, err error) {
	prev = CurrentCalibration()
	if c.GallopRatio != 0 && c.GallopRatio < 2 {
		return prev, fmt.Errorf("tidset: calibration gallop_ratio %d out of range (want ≥ 2)", c.GallopRatio)
	}
	if c.TileBits != 0 && c.TileBits != TileBits {
		return prev, fmt.Errorf("tidset: calibration tile_bits %d does not match this build's tile width %d (the width is compile-time; re-run calibrate -tiles on this build)", c.TileBits, TileBits)
	}
	if c.TileSparseMax != 0 && (c.TileSparseMax < 1 || c.TileSparseMax > TileBits) {
		return prev, fmt.Errorf("tidset: calibration tile_sparse_max %d out of range [1, %d]", c.TileSparseMax, TileBits)
	}
	if c.GallopRatio != 0 {
		gallopRatioV.Store(int32(c.GallopRatio))
	}
	if c.TileSparseMax != 0 {
		tileSparseMaxV.Store(int32(c.TileSparseMax))
	}
	return prev, nil
}

// LoadCalibrationFile reads, validates and applies a calibration file.
func LoadCalibrationFile(path string) (Calibration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Calibration{}, fmt.Errorf("tidset: calibration: %w", err)
	}
	var c Calibration
	if err := json.Unmarshal(data, &c); err != nil {
		return Calibration{}, fmt.Errorf("tidset: calibration %s: %w", path, err)
	}
	if _, err := ApplyCalibration(c); err != nil {
		return Calibration{}, fmt.Errorf("%w (from %s)", err, path)
	}
	return c, nil
}

// WriteCalibrationFile writes c as indented JSON — the output side of
// cmd/calibrate's sweep.
func WriteCalibrationFile(path string, c Calibration) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
