package experiments

import (
	"fmt"

	"efdedup/internal/chunk"
)

// The paper's Sec. VII names variable-size chunking as future work; this
// file quantifies it as an extension experiment so the trade-off the
// authors conjectured is measurable.

// ExtChunking compares fixed-size and content-defined chunking on data
// whose copies drift by a few bytes (appended headers, trimmed prefixes —
// the realistic IoT re-upload case). Fixed chunking loses all alignment
// after any prefix shift; CDC boundaries move with the content.
func ExtChunking(cfg Config) (*Figure, error) {
	shifts := []int{0, 1, 7, 64, 513, 4097}
	size := 1 << 20
	if cfg.Quick {
		shifts = []int{0, 7, 513}
		size = 1 << 18
	}
	// An incompressible payload (no internal duplicates), so the only
	// dedup opportunity is between the original and its shifted
	// re-upload: the ratio of the pair is 2.0 when every chunk survives
	// the shift and 1.0 when none does. Shifts avoid multiples of the
	// fixed chunk size, which would trivially re-align it.
	state := uint64(cfg.seed())*0x9E3779B97F4A7C15 + 99
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	base := make([]byte, size)
	for i := 0; i+8 <= len(base); i += 8 {
		v := next()
		for b := 0; b < 8; b++ {
			base[i+b] = byte(v >> (8 * b))
		}
	}
	prefix := make([]byte, 8192)
	for i := range prefix {
		prefix[i] = byte(next())
	}

	fixed, err := chunk.NewFixedChunker(chunk.DefaultFixedSize)
	if err != nil {
		return nil, err
	}
	gear := chunk.NewDefaultGearChunker()

	ratioFor := func(c chunk.Chunker, shift int) (float64, error) {
		shifted := append(append([]byte{}, prefix[:shift]...), base...)
		seen := make(map[chunk.ID]bool)
		total := 0
		for _, stream := range [][]byte{base, shifted} {
			chunks, err := chunk.SplitBytes(c, stream)
			if err != nil {
				return 0, err
			}
			for _, ck := range chunks {
				total++
				seen[ck.ID] = true
			}
		}
		return float64(total) / float64(len(seen)), nil
	}

	fig := &Figure{
		ID:     "ext-cdc",
		Title:  "Fixed vs content-defined chunking under prefix shifts (paper future work)",
		XLabel: "shift (bytes)",
		YLabel: "dedup ratio of {original, shifted copy}",
	}
	fixedSeries := Series{Name: "fixed"}
	gearSeries := Series{Name: "gear-cdc"}
	for _, shift := range shifts {
		rf, err := ratioFor(fixed, shift)
		if err != nil {
			return nil, err
		}
		rg, err := ratioFor(gear, shift)
		if err != nil {
			return nil, err
		}
		cfg.logf("ext-cdc shift=%d: fixed=%.2f gear=%.2f", shift, rf, rg)
		fixedSeries.X = append(fixedSeries.X, float64(shift))
		fixedSeries.Y = append(fixedSeries.Y, rf)
		gearSeries.X = append(gearSeries.X, float64(shift))
		gearSeries.Y = append(gearSeries.Y, rg)
	}
	fig.Series = []Series{fixedSeries, gearSeries}
	last := len(shifts) - 1
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"at a %d-byte shift: fixed ratio %.2f (alignment destroyed) vs CDC %.2f",
		shifts[last], fixedSeries.Y[last], gearSeries.Y[last]))
	return fig, nil
}
