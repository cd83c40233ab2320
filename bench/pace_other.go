//go:build !linux

package main

import "time"

// sleep falls back to the runtime's timers where nanosleep(2) is not in
// package syscall.
func sleep(d time.Duration) { time.Sleep(d) }
