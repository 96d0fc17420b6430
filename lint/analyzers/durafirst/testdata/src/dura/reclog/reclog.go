// Package reclog mirrors the real atomic-install helper by name — the
// durafirst analyzer matches reclog.WriteFileAtomic.
package reclog

import "bufio"

func WriteFileAtomic(path string, fill func(*bufio.Writer) error) error { return nil }
