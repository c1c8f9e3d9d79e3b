//go:build race

package server

// raceEnabled reports a -race build, where sync.Pool drops a share of Puts
// and pooled buffers are reallocated.
const raceEnabled = true
