package chunk

import (
	"fmt"
	"io"
)

// splitRawReference is the pre-acceleration SplitRaw scanner, kept
// verbatim as the differential-testing oracle: one table lookup, one
// shift-add and two compares per byte, every byte of the sub-minimum
// region hashed. FuzzGearVectorizedEquivalence and the chunk unit tests
// require SplitRaw and SplitRawBytes to reproduce its boundaries
// bit-identically for arbitrary input and geometry.
func (g *GearChunker) splitRawReference(r io.Reader, emit func(Raw) error) error {
	var (
		offset int64
		hash   uint64
		cur    = getBuf(g.max)
		block  = make([]byte, gearReadBlock)
	)
	flush := func() error {
		n := len(cur)
		err := emit(Raw{Offset: offset, Data: cur})
		offset += int64(n)
		cur = getBuf(g.max)
		hash = 0
		return err
	}
	table := &g.table
	mask := g.mask
	for {
		n, rdErr := r.Read(block)
		seg := block[:n]
		start := 0
		for start < len(seg) {
			minI := start + g.min - len(cur) - 1
			maxI := start + g.max - len(cur) - 1
			i := start
			if stop := min(minI, len(seg)); i < stop {
				for ; i < stop; i++ {
					hash = hash<<1 + table[seg[i]]
				}
			}
			boundary := -1
			stop := min(maxI, len(seg)-1)
			for ; i <= stop; i++ {
				hash = hash<<1 + table[seg[i]]
				if hash&mask == 0 {
					boundary = i
					break
				}
			}
			if boundary < 0 {
				if stop != maxI {
					break // segment exhausted mid-chunk
				}
				boundary = maxI // forced max-size boundary
			}
			cur = append(cur, seg[start:boundary+1]...)
			start = boundary + 1
			if err := flush(); err != nil {
				putBuf(cur)
				return err
			}
		}
		cur = append(cur, seg[start:]...)
		switch rdErr {
		case nil:
		case io.EOF:
			if len(cur) > 0 {
				if err := flush(); err != nil {
					putBuf(cur)
					return err
				}
			}
			putBuf(cur)
			return nil
		default:
			putBuf(cur)
			return fmt.Errorf("chunk: read input: %w", rdErr)
		}
	}
}
