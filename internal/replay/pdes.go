// Conservative parallel discrete-event replay of captured DAGs.
//
// The serial executor in replay.go re-derives the engine's *dynamic*
// greedy list schedule — a decision process whose every step depends on
// the completion before it, which is why it is inherently sequential.
// The PDES executor (Options.Parallelism >= 1) instead executes a
// *static cyclic list schedule* that is a pure function of
// (DAG, Workers, Model, Seed):
//
//   - task t runs on worker lane t mod Workers, its insertion id being a
//     topological rank (predecessors precede their successors); each lane
//     executes its tasks in id order;
//   - start(t) = max(lane clock, max over predecessors end(p));
//   - durations are sampled from per-lane streams seeded exactly like
//     the serial per-worker streams, consumed in lane order.
//
// Because nothing above mentions the partition count, the schedule — and
// therefore the merged trace and its Fingerprint — is bit-identical for
// every Parallelism value; partitioning only changes which goroutine
// computes which lane. This is the same invariance-by-construction move
// the sweep driver makes with ReplicaSeed (logical coordinates, not
// execution placement, determine results).
//
// Parallel execution is classic conservative PDES specialized to a known
// DAG: lanes are grouped into P logical processes by an edge-cut-aware
// partitioner (partition.go); each LP advances its lanes on virtual time
// and exchanges completion notifications over bounded channels. The
// captured dependence edges give exact event horizons — a lane blocks
// only on the precise predecessor completions it awaits — so no null
// messages or global clock windows are needed: lookahead is the explicit
// edge set. Bounded inboxes bound the virtual-time skew any LP can run
// ahead of its consumers (the Korniss et al. motivation); a blocked send
// drains the sender's own inbox so the channel graph cannot deadlock.
// See DESIGN.md §12 for the full protocol and determinism argument.
package replay

import (
	"sync"

	"supersim/internal/pq"
	"supersim/internal/rng"
	"supersim/internal/sched"
	"supersim/internal/trace"
)

// pdesCrossover is the task count below which the PDES schedule executes
// on the calling goroutine instead of spawning logical processes. The
// schedule is partition-invariant, so this changes wall-clock only, never
// results. A var so tests can force the parallel protocol on tiny DAGs.
var pdesCrossover = 1024

const (
	// pdesMaxLPs caps the logical-process count: beyond the lane count
	// (or core count) extra LPs only add channel traffic.
	pdesMaxLPs = 64
	// pdesBatchCap is the notification batch size: completions bound for
	// the same LP coalesce into one channel send of up to this many ids.
	pdesBatchCap = 256
	// pdesInboxCap bounds each LP's inbox (in batches). A full inbox
	// blocks producers, bounding how far any LP's virtual clock can run
	// ahead of a consumer.
	pdesInboxCap = 64
)

// mergeHead is one lane's read position during the stamp-ordered merge.
type mergeHead struct {
	pos int32 // current index into pdesPlan.events
	hi  int32 // end of this lane's region
}

// pdesPlan is the pooled per-run state of one PDES replay: the
// worker-count-dependent lane layout and the execution scratch (wait
// counts, end times, per-lane clocks/cursors, event slots). Both CSR edge
// views are the immutable arena's (arena.go), aliased here, so the arena
// carries nothing only this executor reads. Owned slices are reused across
// runs; nothing here survives into the returned trace except copied
// events.
type pdesPlan struct {
	n       int
	workers int

	lane []int32 // task -> worker lane (id mod workers)

	laneOff   []int32 // lane -> start of its region in laneTasks/events; len workers+1
	laneTasks []int32 // tasks grouped by lane, id-ascending within a lane

	predOff  []int32 // alias of Arena.depOff (CSR predecessors)
	predList []int32 // alias of Arena.depPred
	succOff  []int32 // alias of Arena.succOff (CSR successors)
	succList []int32 // alias of Arena.succList

	remWait    []int32   // unnotified predecessor count; owner-LP writes only
	endTime    []float64 // completion time; written by owner before publication
	laneClock  []float64
	laneCursor []int32 // absolute index into laneTasks/events

	events  []trace.Event // per-lane regions at laneOff, filled in id order
	sources []*rng.Source // per-lane duration streams, reseeded each run
	merge   *pq.Heap[mergeHead]
}

var pdesPool = sync.Pool{New: func() any {
	pl := &pdesPlan{}
	pl.merge = pq.New(func(a, b mergeHead) bool {
		ea, eb := &pl.events[a.pos], &pl.events[b.pos]
		if ea.End != eb.End {
			return ea.End < eb.End
		}
		return ea.TaskID < eb.TaskID
	})
	return pl
}}

// runPDES executes the deterministic PDES schedule. Called from RunArena
// when Options.Parallelism >= 1.
func runPDES(a *Arena, opt *Options) (*trace.Trace, error) {
	workers := arenaWorkers(a, opt)
	label := arenaLabel(a, opt)
	n := a.n

	pl := pdesPool.Get().(*pdesPlan)
	defer func() {
		pl.merge.Clear()
		pdesPool.Put(pl)
	}()
	if err := pl.build(a, opt, workers); err != nil {
		return nil, err
	}

	p := opt.Parallelism
	if p > workers {
		p = workers
	}
	if p > pdesMaxLPs {
		p = pdesMaxLPs
	}
	if p <= 1 || n < pdesCrossover {
		// Below the crossover (or at P=1) the fan-out cost exceeds the win;
		// execute the identical schedule on the calling goroutine.
		pl.runSerial(a, opt)
	} else {
		// The LP runners retain the options pointer, so give the parallel
		// branch its own heap copy — the serial branches above then keep
		// their Options on the caller's stack (the ≤2-alloc budget).
		popt := *opt
		pl.runParallel(a, &popt, p)
	}
	return pl.mergeTrace(label), nil
}

// build lays the static schedule out over workers lanes and sizes the
// per-run scratch. Task validation and both CSR views
// were done once at arena build time.
func (pl *pdesPlan) build(a *Arena, opt *Options, workers int) error {
	if opt.Model == nil {
		return errNoModel
	}
	n := a.n
	pl.n, pl.workers = n, workers
	pl.predOff, pl.predList = a.depOff, a.depPred
	pl.succOff, pl.succList = a.succOff, a.succList
	pl.lane = growInt32(pl.lane, n)
	pl.laneOff = growInt32(pl.laneOff, workers+1)
	pl.laneTasks = growInt32(pl.laneTasks, n)
	pl.remWait = growInt32(pl.remWait, n)
	pl.laneCursor = growInt32(pl.laneCursor, workers)
	pl.laneClock = growFloat64(pl.laneClock, workers)
	pl.endTime = growFloat64(pl.endTime, n)
	if cap(pl.events) < n {
		pl.events = make([]trace.Event, n)
	} else {
		pl.events = pl.events[:n]
	}
	for i := 0; i < n; i++ {
		pl.remWait[i] = a.depOff[i+1] - a.depOff[i]
	}

	// Lane assignment and counting sort of tasks into lane regions
	// (id-ascending within each lane, because the fill walks ids).
	w32 := int32(workers)
	for i := 0; i < n; i++ {
		pl.lane[i] = int32(i) % w32
	}
	for w := 0; w <= workers; w++ {
		pl.laneOff[w] = 0
	}
	for i := 0; i < n; i++ {
		pl.laneOff[pl.lane[i]+1]++
	}
	for w := 0; w < workers; w++ {
		pl.laneOff[w+1] += pl.laneOff[w]
	}
	for w := 0; w < workers; w++ {
		pl.laneCursor[w] = pl.laneOff[w]
		pl.laneClock[w] = 0
	}
	for t := 0; t < n; t++ {
		w := pl.lane[t]
		pl.laneTasks[pl.laneCursor[w]] = int32(t)
		pl.laneCursor[w]++
	}
	for w := 0; w < workers; w++ {
		pl.laneCursor[w] = pl.laneOff[w]
	}

	// Per-lane sampling streams: same derivation as the serial executor's
	// per-worker streams, retained across runs and reseeded.
	if len(pl.sources) < workers {
		grown := make([]*rng.Source, workers)
		copy(grown, pl.sources)
		pl.sources = grown
	}
	for w := 0; w < workers; w++ {
		seed := rng.WorkerSeed(opt.Seed, w)
		if pl.sources[w] == nil {
			pl.sources[w] = rng.New(seed)
		} else {
			pl.sources[w].Seed(seed)
		}
	}
	return nil
}

// execTask runs one task on its lane: computes its start from the lane
// clock and its predecessors' end times (all published by the time the
// owner sees remWait reach zero), samples its duration, and
// records the event into the lane's region. Caller (the lane's owner)
// guarantees exclusivity.
//
//simlint:hotpath
func (pl *pdesPlan) execTask(a *Arena, opt *Options, t int32) {
	w := pl.lane[t]
	start := pl.laneClock[w]
	for _, p := range pl.predList[pl.predOff[t]:pl.predOff[t+1]] {
		if e := pl.endTime[p]; e > start {
			start = e
		}
	}
	dur := opt.Model.Duration(a.str(a.classIdx[t]), sched.KindCPU, pl.sources[w])
	if dur < 0 {
		dur = 0
	}
	end := start + dur
	pl.endTime[t] = end
	pl.laneClock[w] = end
	pl.events[pl.laneCursor[w]] = trace.Event{
		Worker: int(w),
		Class:  a.str(a.classIdx[t]),
		Label:  a.str(a.labelIdx[t]),
		TaskID: int(t),
		Start:  start,
		End:    end,
	}
	pl.laneCursor[w]++
}

// runSerial executes the schedule on the calling goroutine. Global id
// order restricted to any lane is that lane's order, and ids are
// topological, so every predecessor's end time exists when read — this
// loop is the executable definition of the schedule the parallel path
// must reproduce bit for bit.
//
//simlint:hotpath
func (pl *pdesPlan) runSerial(a *Arena, opt *Options) {
	for t := int32(0); t < int32(pl.n); t++ {
		pl.execTask(a, opt, t)
	}
}

// lpMsg is one completion-notification batch: ids of tasks owned by the
// receiver that just had one predecessor complete (one id per crossed
// edge, so a plain counter decrement suffices on receipt).
type lpMsg []int32

// lpMsgPool recycles notification batches: the receiver resets a drained
// batch and returns it, so steady-state posting allocates nothing (the
// simlint hotalloc analyzer checks the posting path statically; the
// replay alloc-ceiling benchmark checks it dynamically). Batches travel
// as *lpMsg so a Put never re-boxes.
var lpMsgPool = sync.Pool{New: func() any {
	m := make(lpMsg, 0, pdesBatchCap)
	return &m
}}

// lpRunner is one logical process: a set of lanes advanced by one
// goroutine. Shared plan state is ownership-partitioned — an LP writes
// remWait only for tasks it owns and endTime/laneClock/laneCursor/events
// only for its lanes; cross-LP reads of endTime are ordered by the
// channel delivery of the corresponding notification.
type lpRunner struct {
	id        int32
	plan      *pdesPlan
	a         *Arena
	opt       *Options
	part      []int32 // lane -> LP id
	lanes     []int32
	inbox     chan *lpMsg
	inboxes   []chan *lpMsg
	outBuf    []*lpMsg // pending notifications per destination LP
	remaining int
}

func (lp *lpRunner) run() {
	for lp.remaining > 0 {
		progress := 0
		for _, w := range lp.lanes {
			progress += lp.advanceLane(w)
		}
		lp.remaining -= progress
		if lp.remaining == 0 {
			break
		}
		// Publish this round's completions before possibly blocking, so a
		// peer waiting on them can always proceed.
		lp.flushAll()
		drained := 0
		for {
			select {
			case m := <-lp.inbox:
				lp.process(m)
				drained++
				continue
			default:
			}
			break
		}
		if progress == 0 && drained == 0 {
			// Every unfinished lane waits on a remote predecessor and all
			// outgoing notifications are flushed: some peer owns the
			// globally minimal-id unexecuted task and will advance, so a
			// notification for us is in flight or forthcoming.
			lp.process(<-lp.inbox)
		}
	}
	lp.flushAll()
}

// advanceLane executes the lane's tasks in id order until its cursor
// task still awaits a predecessor notification; returns the number
// executed.
//
//simlint:hotpath
func (lp *lpRunner) advanceLane(w int32) int {
	pl := lp.plan
	hi := pl.laneOff[w+1]
	done := 0
	for pl.laneCursor[w] < hi {
		t := pl.laneTasks[pl.laneCursor[w]]
		if pl.remWait[t] != 0 {
			break
		}
		pl.execTask(lp.a, lp.opt, t)
		done++
		for _, s := range pl.succList[pl.succOff[t]:pl.succOff[t+1]] {
			owner := lp.part[pl.lane[s]]
			if owner == lp.id {
				pl.remWait[s]--
			} else {
				lp.post(owner, s)
			}
		}
	}
	return done
}

// post queues a notification for the owner of successor s, flushing the
// batch when full. Batches come from lpMsgPool and are returned by the
// receiving LP's process, so the steady state recycles instead of
// allocating.
//
//simlint:hotpath
func (lp *lpRunner) post(dst, s int32) {
	buf := lp.outBuf[dst]
	if buf == nil {
		buf = lpMsgPool.Get().(*lpMsg)
	}
	//simlint:allow hotalloc — cap is pdesBatchCap and full batches flush first, so this append never grows
	*buf = append(*buf, s)
	if len(*buf) >= pdesBatchCap {
		lp.send(dst, buf)
		buf = nil
	}
	lp.outBuf[dst] = buf
}

// send delivers one batch, draining our own inbox while the destination
// inbox is full — two LPs flushing into each other therefore always make
// progress, and the bounded inboxes cannot deadlock.
//
//simlint:hotpath
func (lp *lpRunner) send(dst int32, batch *lpMsg) {
	for {
		select {
		case lp.inboxes[dst] <- batch:
			return
		case m := <-lp.inbox:
			lp.process(m)
		}
	}
}

func (lp *lpRunner) flushAll() {
	for dst := range lp.outBuf {
		if buf := lp.outBuf[dst]; buf != nil && len(*buf) > 0 {
			lp.outBuf[dst] = nil
			lp.send(int32(dst), buf)
		}
	}
}

// process applies one inbound batch: every id is an owned task with one
// more predecessor now complete. The channel receive orders this LP's
// later endTime reads after the sender's writes. The drained batch goes
// back to lpMsgPool.
//
//simlint:hotpath
func (lp *lpRunner) process(m *lpMsg) {
	pl := lp.plan
	for _, s := range *m {
		pl.remWait[s]--
	}
	*m = (*m)[:0]
	lpMsgPool.Put(m)
}

// runParallel partitions the lanes over p logical processes and runs the
// channel protocol to completion.
func (pl *pdesPlan) runParallel(a *Arena, opt *Options, p int) {
	w := pl.workers
	// Inter-lane dependence-edge weights feed the edge-cut partitioner.
	weight := make([]int32, w*w)
	for i := 0; i < pl.n; i++ {
		li := pl.lane[i]
		for _, pr := range pl.predList[pl.predOff[i]:pl.predOff[i+1]] {
			if lp := pl.lane[pr]; lp != li {
				weight[int(lp)*w+int(li)]++
			}
		}
	}
	part := make([]int32, w)
	partitionLanes(w, p, weight, part)

	inboxes := make([]chan *lpMsg, p)
	for i := range inboxes {
		inboxes[i] = make(chan *lpMsg, pdesInboxCap)
	}
	lps := make([]lpRunner, p)
	for i := range lps {
		lps[i] = lpRunner{
			id:      int32(i),
			plan:    pl,
			a:       a,
			opt:     opt,
			part:    part,
			inbox:   inboxes[i],
			inboxes: inboxes,
			outBuf:  make([]*lpMsg, p),
		}
	}
	for lane := 0; lane < w; lane++ {
		g := part[lane]
		lps[g].lanes = append(lps[g].lanes, int32(lane))
		lps[g].remaining += int(pl.laneOff[lane+1] - pl.laneOff[lane])
	}
	var wg sync.WaitGroup
	for i := range lps {
		wg.Add(1)
		go func(r *lpRunner) {
			defer wg.Done()
			r.run()
		}(&lps[i])
	}
	wg.Wait()
}

// mergeTrace emits the per-lane event regions in canonical stamp order:
// (end time, task id) ascending. Each lane's region is already sorted by
// that key (lane clocks are monotone and ids ascend within a lane), so
// a W-way heap merge suffices. The order depends only on the schedule,
// never on the partitioning, so fingerprints match across all
// parallelism values.
func (pl *pdesPlan) mergeTrace(label string) *trace.Trace {
	tr := trace.New(label, pl.workers)
	tr.Reserve(pl.n)
	h := pl.merge
	for w := 0; w < pl.workers; w++ {
		if lo, hi := pl.laneOff[w], pl.laneOff[w+1]; lo < hi {
			h.Push(mergeHead{pos: lo, hi: hi})
		}
	}
	for {
		head, ok := h.Peek()
		if !ok {
			break
		}
		tr.Append(pl.events[head.pos])
		if head.pos+1 < head.hi {
			h.ReplaceTop(mergeHead{pos: head.pos + 1, hi: head.hi})
		} else {
			h.Pop()
		}
	}
	return tr
}
