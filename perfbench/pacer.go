package main

import "syscall"

// sleepNs blocks the calling OS thread for d nanoseconds with nanosleep(2).
// On a thread locked by runtime.LockOSThread it wakes within tens of
// microseconds, where time.Sleep, which goes through the runtime's timer
// and scheduler, can overshoot by a millisecond when the CPUs are busy. An
// interrupted sleep returns early; the generator's loop re-checks the time.
func sleepNs(d int64) {
	ts := syscall.NsecToTimespec(d)
	syscall.Nanosleep(&ts, nil)
}
