package sched

import (
	"testing"
)

func mkTask(prio, seq int, where Where) *Task {
	return &Task{Class: "K", Priority: prio, seq: seq, Where: where}
}

func cpuKinds(n int) []WorkerKind {
	out := make([]WorkerKind, n)
	for i := range out {
		out[i] = KindCPU
	}
	return out
}

func TestFIFOPolicyOrder(t *testing.T) {
	p := NewFIFOPolicy()
	for i := 0; i < 3; i++ {
		p.Push(mkTask(0, i, 0), -1)
	}
	for i := 0; i < 3; i++ {
		got := p.Pop(0, KindCPU)
		if got == nil || got.seq != i {
			t.Fatalf("pop %d returned %+v", i, got)
		}
	}
	if p.Pop(0, KindCPU) != nil {
		t.Error("pop on empty policy returned a task")
	}
}

func TestFIFOPolicySkipsDisallowedKind(t *testing.T) {
	p := NewFIFOPolicy()
	p.Push(mkTask(0, 0, OnAccelerator), -1)
	p.Push(mkTask(0, 1, OnCPU), -1)
	got := p.Pop(0, KindCPU)
	if got == nil || got.seq != 1 {
		t.Fatalf("CPU pop got %+v, want the CPU task", got)
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1 (accelerator task retained)", p.Len())
	}
	if acc := p.Pop(0, KindAccelerator); acc == nil || acc.seq != 0 {
		t.Error("accelerator task lost")
	}
}

func TestPriorityPolicyRetainsStashedTasks(t *testing.T) {
	p := NewPriorityPolicy()
	p.Push(mkTask(9, 0, OnAccelerator), -1) // highest priority but GPU-only
	p.Push(mkTask(1, 1, OnCPU), -1)
	got := p.Pop(0, KindCPU)
	if got == nil || got.Priority != 1 {
		t.Fatalf("CPU pop got %+v", got)
	}
	// The stashed accelerator task must still be there, in order.
	if got := p.Pop(0, KindAccelerator); got == nil || got.Priority != 9 {
		t.Fatalf("accelerator pop got %+v", got)
	}
}

func TestLocalityPolicyPrefersOwnQueue(t *testing.T) {
	p := NewLocalityPolicy(2)
	mine := mkTask(0, 0, 0)
	mine.affinity = 1
	other := mkTask(0, 1, 0)
	other.affinity = 0
	p.Push(mine, -1)
	p.Push(other, -1)
	got := p.Pop(1, KindCPU)
	if got != mine {
		t.Error("worker 1 did not get its affine task first")
	}
	// Worker 1 now steals worker 0's task.
	got = p.Pop(1, KindCPU)
	if got != other {
		t.Error("steal failed")
	}
	if p.Steals() != 1 {
		t.Errorf("steals = %d, want 1", p.Steals())
	}
}

func TestLocalityPolicyGlobalQueueForUnboundTasks(t *testing.T) {
	p := NewLocalityPolicy(2)
	tk := mkTask(0, 0, 0)
	tk.affinity = -1
	p.Push(tk, -1)
	if got := p.Pop(0, KindCPU); got != tk {
		t.Error("unbound task not served from the global queue")
	}
}

func TestWorkStealingPolicyLIFOOwnFIFOSteal(t *testing.T) {
	p := NewWorkStealingPolicy(2)
	a, b := mkTask(0, 0, 0), mkTask(0, 1, 0)
	p.Push(a, 0)
	p.Push(b, 0)
	// Own pops are LIFO (cache reuse): b first.
	if got := p.Pop(0, KindCPU); got != b {
		t.Error("own pop not LIFO")
	}
	p.Push(b, 0)
	// Steals take the oldest: a.
	if got := p.Pop(1, KindCPU); got != a {
		t.Error("steal not FIFO")
	}
	if p.Steals() != 1 {
		t.Errorf("steals = %d", p.Steals())
	}
}

func TestWorkStealingGlobalFallback(t *testing.T) {
	p := NewWorkStealingPolicy(2)
	tk := mkTask(0, 0, 0)
	p.Push(tk, -1) // released by the master: global queue
	if got := p.Pop(1, KindCPU); got != tk {
		t.Error("global task not served")
	}
}

func TestDMPolicyBindsToLeastLoadedEligibleWorker(t *testing.T) {
	kinds := []WorkerKind{KindCPU, KindCPU, KindAccelerator}
	model := func(class string, kind WorkerKind) float64 {
		if kind == KindAccelerator {
			return 1 // 4x faster than CPU
		}
		return 4
	}
	p := NewDMPolicy(kinds, model)
	// Three tasks that may run anywhere: the first two go to the
	// accelerator (cost 1 vs 4), the third lands on a CPU only after the
	// accelerator queue's expected finish exceeds a CPU's.
	for i := 0; i < 6; i++ {
		p.Push(&Task{Class: "K", seq: i, Where: Anywhere}, -1)
	}
	accCount := 0
	for {
		tk := p.Pop(2, KindAccelerator)
		if tk == nil {
			break
		}
		accCount++
	}
	if accCount == 0 || accCount == 6 {
		t.Errorf("dm placed %d/6 tasks on the accelerator, want a mix", accCount)
	}
	// CPU-only tasks never land on the accelerator.
	p2 := NewDMPolicy(kinds, model)
	p2.Push(&Task{Class: "K", Where: OnCPU}, -1)
	if tk := p2.Pop(2, KindAccelerator); tk != nil {
		t.Error("CPU-only task placed on accelerator")
	}
}

func TestDMPolicyNilModelDegradesToLoadBalance(t *testing.T) {
	p := NewDMPolicy(cpuKinds(2), nil)
	p.Push(mkTask(0, 0, 0), -1)
	p.Push(mkTask(0, 1, 0), -1)
	if p.Pop(0, KindCPU) == nil || p.Pop(1, KindCPU) == nil {
		t.Error("nil-model dm did not spread tasks across both workers")
	}
}

func TestDMPolicyChargesRunningTaskUntilCompletion(t *testing.T) {
	// Placement must read virtual state only: a worker that started a task
	// is busy until it completes it, whether or not its goroutine has
	// popped yet when the next task is released.
	p := NewDMPolicy(cpuKinds(2), nil)
	p.Push(mkTask(0, 0, 0), -1) // both idle: worker 0
	if p.Pop(0, KindCPU) == nil {
		t.Fatal("worker 0 did not get the first task")
	}
	p.Push(mkTask(0, 1, 0), -1)
	if len(p.queues[1]) != 1 {
		t.Fatalf("second task queued on %v, want worker 1 (worker 0 is running)", p.queues)
	}
	// Worker 0 completes and its completion releases a task: it is idle
	// again, worker 1 still holds one.
	p.Push(mkTask(0, 2, 0), 0)
	if len(p.queues[0]) != 1 {
		t.Fatalf("released task queued on %v, want worker 0 (just completed)", p.queues)
	}
	// A completion that releases nothing is seen at the worker's next Pop,
	// also when that Pop finds the queue empty.
	q := NewDMPolicy(cpuKinds(2), nil)
	q.Push(mkTask(0, 0, 0), -1)
	q.Pop(0, KindCPU)
	if q.Pop(0, KindCPU) != nil || q.load[0] != 0 {
		t.Errorf("idle worker 0 still carries load %g", q.load[0])
	}
}

func TestClaimable(t *testing.T) {
	kinds := []WorkerKind{KindCPU, KindAccelerator}
	// FIFO: CPU task claimable by a free CPU worker only.
	p := NewFIFOPolicy()
	p.Push(mkTask(0, 0, OnCPU), -1)
	if !p.Claimable([]int{0}, kinds) {
		t.Error("FIFO: claimable by free CPU, got false")
	}
	if p.Claimable([]int{1}, kinds) {
		t.Error("FIFO: CPU task claimed by accelerator")
	}
	if p.Claimable(nil, kinds) {
		t.Error("FIFO: claimable with no free workers")
	}
	// DM: bound to a specific worker.
	dm := NewDMPolicy(cpuKinds(2), nil)
	dm.Push(mkTask(0, 0, 0), -1) // lands on worker 0 (both empty)
	boundTo := 0
	if len(dm.queues[1]) > 0 {
		boundTo = 1
	}
	if !dm.Claimable([]int{boundTo}, cpuKinds(2)) {
		t.Error("DM: bound worker cannot claim its own task")
	}
	if dm.Claimable([]int{1 - boundTo}, cpuKinds(2)) {
		t.Error("DM: other worker claims a bound task")
	}
}
