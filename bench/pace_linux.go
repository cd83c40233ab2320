package main

import (
	"syscall"
	"time"
)

// sleep blocks the calling thread in nanosleep(2). The runtime's own timers
// wake an idle process through epoll_wait, whose timeout is in whole
// milliseconds, so time.Sleep would send an open loop's requests up to a
// millisecond late and in bursts; a kernel high-resolution timer does not.
// A signal may cut the sleep short: callers loop until their time has come.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR: the caller sleeps again
}
