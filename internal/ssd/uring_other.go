//go:build !linux

package ssd

import "errors"

// uringRing is unavailable off Linux: newURing always fails, so the file
// backend falls back to the portable pread pool and never calls the ring
// methods below.
type uringRing struct{ enters int }

func newURing(int) (*uringRing, error) { return nil, errors.New("ssd: io_uring requires linux") }

func (*uringRing) full() bool                                   { return false }
func (*uringRing) stamp(int32, int64, []byte, uint32)           {}
func (*uringRing) enter(int) error                              { return nil }
func (*uringRing) pop() (tag uint32, n int, err error, ok bool) { return 0, 0, nil, false }
func (*uringRing) close()                                       {}
