package rt

import "time"

// CPU models a serially shared processor: callers occupy it for a
// duration, one at a time. Camelot is "operating-system-intensive" —
// every IPC passes through the kernel, and on the paper's testbeds
// (a uniprocessor RT PC; a VAX multiprocessor whose Mach had a single
// run queue on one master processor) that kernel is a serial
// resource. Routing the simulated IPC costs through a CPU is what
// makes message-intensive workloads saturate the way Figures 4 and 5
// show, with throughput limited by the message system rather than by
// any Camelot component.
type CPU struct {
	r  Runtime
	mu Mutex
}

// NewCPU returns an idle serial processor.
func NewCPU(r Runtime) *CPU {
	return &CPU{r: r, mu: r.NewMutex()}
}

// Use occupies the processor for d. A nil CPU is never contended —
// callers fall back to plain sleeping.
func (c *CPU) Use(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.r.Sleep(d)
	c.mu.Unlock()
}

// Charge occupies cpu if non-nil, else sleeps on r: the helper every
// component uses so the kernel model stays optional.
func Charge(r Runtime, cpu *CPU, d time.Duration) {
	if d <= 0 {
		return
	}
	if cpu != nil {
		cpu.Use(d)
		return
	}
	r.Sleep(d)
}
