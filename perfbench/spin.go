package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// A virtual CPU with nothing to run halts, and the next wake-up waits for
// the host to schedule it again. A closed loop over loopback HTTP idles and
// wakes its CPUs thousands of times a second, so on a busy host the
// wake-ups, counted as steal time, took 20-45% of the machine and set
// the latency tail. While it measures, the benchmark therefore keeps every
// CPU busy with a spinner at the SCHED_IDLE policy: the guest kernel runs
// a spinner only when no other thread wants that CPU, so the CPUs never
// halt and a wake-up is the guest's own business (the bare-metal
// counterpart is booting with idle=poll).

const schedIdle = 5 // SCHED_IDLE in <linux/sched.h>

// spinners are the running spinner processes, one per CPU.
var spinners []*exec.Cmd

// spin turns the calling process into a spinner; it never returns.
func spin() {
	runtime.LockOSThread()
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fail("sched_setscheduler: %v", errno)
	}
	for {
	}
}

// startSpinners starts one spinner per CPU: this program run with -spin.
func startSpinners() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command(self, "-spin")
		c.Env = append(os.Environ(), "GOMAXPROCS=1")
		// Should this process die without stopping it, the kernel kills
		// the spinner too.
		c.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := c.Start(); err != nil {
			stopSpinners()
			return err
		}
		spinners = append(spinners, c)
	}
	return nil
}

// stopSpinners kills the spinners and waits for them to end.
func stopSpinners() {
	for _, c := range spinners {
		_ = c.Process.Kill() // it may have ended already; Wait reaps it either way
		_ = c.Wait()
	}
	spinners = nil
}
