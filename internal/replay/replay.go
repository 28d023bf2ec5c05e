// Package replay co-simulates an application trace over a network engine:
// it is the outer half of the paper's simulator (Section VI-A), common to
// "measured" runs (substrate engines) and "predicted" runs (model-driven
// engines from package predict).
//
// Semantics implemented:
//
//   - Compute events occupy the task for their duration.
//   - Send/Recv are blocking and rendezvous: the transfer starts when
//     both sides have reached their call (the paper measures MPI_Send of
//     large messages, which MPICH/MX/MVAPICH all run in rendezvous
//     mode), and both sides return when the transfer completes.
//   - Messages match per (source, tag) in FIFO order; a receive with
//     trace.AnySource matches the earliest available send with its tag,
//     like the paper's benchmark does to avoid fixing receive order.
//   - Barriers release every task at the instant the last one arrives.
//   - Transfers between two tasks on the same cluster node bypass the
//     network and cost cluster.LocalCopyTime(bytes).
//
// Matching costs O(1) per message, not a scan of every pending pair.
// Send and Recv both block, so a task has at most one pending operation
// (asserted by panic). Each rank therefore has at most one posted
// receive, and the sends waiting for a rank form one FIFO in posting
// order, linked through the sending tasks. A new send checks only its
// receiver's posted receive; a new receive takes the first compatible
// send of its own FIFO. Every post is matched at once, so no other pair
// can become matchable: this picks exactly the pair a scan in posting
// order would.
//
// The per-run state (event queue, tasks with their transfers, the flow
// table) is pooled and reused across Run calls: a warm Run allocates
// only the returned Result and its Tasks. Timers are des.Runner values
// (the task for compute ends and barrier releases, the transfer for
// local copies), and engine flow ids index a slice from the run's first
// id, since core.Engine hands out consecutive ids.
//
// A replay owns its engine (see core.Engine): one goroutine calls the
// engine and the task-side event queue.
package replay

import (
	"fmt"
	"sync"

	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/des"
	"bwshare/internal/trace"
)

// TaskResult aggregates one task's timing.
type TaskResult struct {
	Rank int
	// Finish is when the task's program completed.
	Finish float64
	// SendTime is the summed duration of its sends, call to return
	// (the paper's Sm / Sp per-task communication sums).
	SendTime float64
	// RecvTime is the summed duration of its receives.
	RecvTime float64
	// BlockedSend is the part of SendTime spent waiting for the
	// receiver to arrive (rendezvous wait, not bandwidth).
	BlockedSend float64
	// Sends and NetBytes count this task's outgoing messages.
	Sends    int
	NetBytes float64
}

// Result is the outcome of one replay.
type Result struct {
	Engine   string
	Tasks    []TaskResult
	Makespan float64
	// NetTransfers / LocalTransfers split messages by placement.
	NetTransfers   int
	LocalTransfers int
}

// CommTimes returns the per-task send-time sums (the quantity the paper
// compares between measurement and prediction in Figures 8-9).
func (r *Result) CommTimes() []float64 {
	out := make([]float64, len(r.Tasks))
	for i, t := range r.Tasks {
		out[i] = t.SendTime
	}
	return out
}

type taskPhase int

const (
	phaseReady taskPhase = iota
	phaseComputing
	phaseSend     // posted a send, waiting in its receiver's FIFO
	phaseRecv     // posted a receive, waiting for a matching send
	phaseTransfer // matched, waiting for the transfer to end
	phaseBarrier
	phaseDone
)

// transfer is an in-flight matched communication. It is stored in its
// sender, which is blocked until the transfer ends.
type transfer struct {
	s         *sim
	from, to  int
	sendStart float64 // sender call time
	recvStart float64
	matched   float64 // when both sides were present
	bytes     float64
	local     bool
}

// Run ends a local copy (des.Runner).
func (x *transfer) Run() { x.s.finishTransfer(x, x.s.q.Now()) }

type task struct {
	s       *sim
	rank    int
	prog    trace.Task
	pc      int
	phase   taskPhase
	opStart float64 // when the current blocking op began
	// head and tail delimit the FIFO of ranks whose posted sends wait
	// for this task; next links this task into its receiver's FIFO
	// while its own send waits there. -1 ends a list.
	head, tail, next int
	xfer             transfer
}

// Run resumes the task after a compute phase or a barrier (des.Runner).
func (t *task) Run() { t.s.step(t, t.s.q.Now()) }

// accepts reports whether t's posted receive matches a send from rank
// from with the given tag.
func (t *task) accepts(from, tag int) bool {
	ev := &t.prog[t.pc]
	return ev.Tag == tag && (ev.Peer == trace.AnySource || ev.Peer == from)
}

// sim is the per-run driver state, pooled across runs.
type sim struct {
	eng   core.Engine
	clu   cluster.Cluster
	place cluster.Placement
	// q holds the task-side timers (compute ends, local copies, barrier
	// releases). The replay loop is its only caller, as it is the
	// engine's (see core.Engine).
	q     des.Queue
	tasks []task
	// flows maps engine flow id minus flowBase to its transfer; nil
	// once the transfer has ended.
	flows    []*transfer
	flowBase int
	done     []core.Completion
	inBar    int
	remain   int
	res      *Result
}

var sims = sync.Pool{New: func() any { return new(sim) }}

// Run replays tr over eng with the given cluster and placement. The
// engine is reset first if it supports it.
func Run(eng core.Engine, clu cluster.Cluster, place cluster.Placement, tr *trace.Trace) (*Result, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := clu.Validate(); err != nil {
		return nil, err
	}
	if len(place) != tr.NumTasks() {
		return nil, fmt.Errorf("replay: placement has %d entries for %d tasks", len(place), tr.NumTasks())
	}
	if err := place.Validate(clu); err != nil {
		return nil, err
	}
	if r, ok := eng.(core.Resetter); ok {
		r.Reset()
	}
	s := sims.Get().(*sim)
	s.reset(eng, clu, place, tr)
	// Kick every task off at time zero.
	for i := range s.tasks {
		s.step(&s.tasks[i], 0)
	}
	err := s.loop()
	res := s.res
	s.release()
	if err != nil {
		return nil, err
	}
	return res, nil
}

// reset prepares pooled state for a replay of tr; only the Result and
// its Tasks are allocated.
func (s *sim) reset(eng core.Engine, clu cluster.Cluster, place cluster.Placement, tr *trace.Trace) {
	n := tr.NumTasks()
	s.eng, s.clu, s.place = eng, clu, place
	s.q.Reset()
	if cap(s.tasks) < n {
		s.tasks = make([]task, n)
	}
	s.tasks = s.tasks[:n]
	for rank := range s.tasks {
		s.tasks[rank] = task{s: s, rank: rank, prog: tr.Tasks[rank], head: -1, tail: -1, next: -1}
	}
	s.flows = s.flows[:0]
	s.inBar = 0
	s.remain = n
	s.res = &Result{Engine: eng.Name(), Tasks: make([]TaskResult, n)}
	for rank := range s.res.Tasks {
		s.res.Tasks[rank].Rank = rank
	}
}

// release drops the run's references and returns s to the pool.
func (s *sim) release() {
	s.eng, s.place, s.res = nil, nil, nil
	clear(s.tasks)
	clear(s.flows)
	sims.Put(s)
}

// loop interleaves engine progress with task timers until all tasks end.
func (s *sim) loop() error {
	guard := 0
	for s.remain > 0 {
		if guard++; guard > 100_000_000 {
			return fmt.Errorf("replay: event budget exceeded (livelock?)")
		}
		tq, ok := s.q.PeekTime()
		if !ok {
			tq = core.Inf
		}
		done, now := s.eng.Advance(tq)
		if len(done) > 0 {
			// Ending a transfer may start flows, which the engine
			// contract lets invalidate done: work from a copy.
			s.done = append(s.done[:0], done...)
			for _, c := range s.done {
				s.finishNetTransfer(c.Flow, c.Time)
			}
			continue
		}
		if !ok {
			return fmt.Errorf("replay: deadlock at t=%.6f: %d tasks blocked with no pending events", now, s.remain)
		}
		s.q.Step()
	}
	return nil
}

// step advances task t from time now until it blocks or finishes.
func (s *sim) step(t *task, now float64) {
	if t.phase != phaseReady && t.phase != phaseComputing {
		panic(fmt.Sprintf("replay: task %d resumed with an operation pending (phase %d)", t.rank, t.phase))
	}
	if t.pc >= len(t.prog) {
		t.phase = phaseDone
		s.res.Tasks[t.rank].Finish = now
		if now > s.res.Makespan {
			s.res.Makespan = now
		}
		s.remain--
		return
	}
	ev := &t.prog[t.pc]
	switch ev.Kind {
	case trace.Compute:
		t.phase = phaseComputing
		t.pc++
		s.q.ScheduleRunner(now+ev.Duration, t)
	case trace.Send:
		t.phase = phaseSend
		t.opStart = now
		s.postSend(t, ev, now)
	case trace.Recv:
		t.phase = phaseRecv
		t.opStart = now
		s.postRecv(t, ev, now)
	case trace.Barrier:
		t.phase = phaseBarrier
		s.inBar++
		// Barriers synchronize live tasks only: a finished task cannot
		// reach one.
		if s.inBar == s.remain {
			s.releaseBarrier(now)
		}
	default:
		panic(fmt.Sprintf("replay: unknown event kind %q", ev.Kind))
	}
}

func (s *sim) releaseBarrier(now float64) {
	s.inBar = 0
	for i := range s.tasks {
		t := &s.tasks[i]
		if t.phase == phaseBarrier {
			t.phase = phaseReady
			t.pc++
			s.q.ScheduleRunner(now, t)
		}
	}
}

// postSend matches t's send with its receiver's posted receive, or
// queues it in the receiver's FIFO.
func (s *sim) postSend(t *task, ev *trace.Event, now float64) {
	r := &s.tasks[ev.Peer]
	if r.phase == phaseRecv && r.accepts(t.rank, ev.Tag) {
		s.start(t, r, ev.Bytes, now)
		return
	}
	t.next = -1
	if r.tail < 0 {
		r.head = t.rank
	} else {
		s.tasks[r.tail].next = t.rank
	}
	r.tail = t.rank
}

// postRecv matches t's receive with the first compatible send of its
// FIFO, if any; otherwise the receive stays posted.
func (s *sim) postRecv(t *task, ev *trace.Event, now float64) {
	prev := -1
	for i := t.head; i >= 0; prev, i = i, s.tasks[i].next {
		snd := &s.tasks[i]
		sev := &snd.prog[snd.pc]
		if sev.Tag != ev.Tag || (ev.Peer != trace.AnySource && ev.Peer != i) {
			continue
		}
		if prev < 0 {
			t.head = snd.next
		} else {
			s.tasks[prev].next = snd.next
		}
		if t.tail == i {
			t.tail = prev
		}
		s.start(snd, t, sev.Bytes, now)
		return
	}
}

// start begins the transfer of a matched pair.
func (s *sim) start(snd, rcv *task, bytes, now float64) {
	snd.phase, rcv.phase = phaseTransfer, phaseTransfer
	x := &snd.xfer
	*x = transfer{
		s:         s,
		from:      snd.rank,
		to:        rcv.rank,
		sendStart: snd.opStart,
		recvStart: rcv.opStart,
		matched:   now,
		bytes:     bytes,
		local:     s.place.SameNode(snd.rank, rcv.rank),
	}
	if x.local {
		s.res.LocalTransfers++
		s.q.ScheduleRunner(now+s.clu.LocalCopyTime(bytes), x)
		return
	}
	s.res.NetTransfers++
	id := s.eng.StartFlow(s.place[snd.rank], s.place[rcv.rank], bytes, now)
	if len(s.flows) == 0 {
		s.flowBase = id
	}
	if want := s.flowBase + len(s.flows); id != want {
		panic(fmt.Sprintf("replay: engine returned flow id %d, want %d (flow ids must be consecutive)", id, want))
	}
	s.flows = append(s.flows, x)
}

func (s *sim) finishNetTransfer(flowID int, now float64) {
	i := flowID - s.flowBase
	if i < 0 || i >= len(s.flows) || s.flows[i] == nil {
		panic(fmt.Sprintf("replay: engine reported unknown flow %d", flowID))
	}
	x := s.flows[i]
	s.flows[i] = nil
	s.finishTransfer(x, now)
}

func (s *sim) finishTransfer(x *transfer, now float64) {
	// x lives in the sender, which may start its next transfer below.
	sender := &s.tasks[x.from]
	receiver := &s.tasks[x.to]
	sres := &s.res.Tasks[x.from]
	sres.SendTime += now - x.sendStart
	sres.BlockedSend += x.matched - x.sendStart
	sres.Sends++
	if !x.local {
		sres.NetBytes += x.bytes
	}
	s.res.Tasks[x.to].RecvTime += now - x.recvStart
	sender.phase = phaseReady
	sender.pc++
	receiver.phase = phaseReady
	receiver.pc++
	s.step(sender, now)
	s.step(receiver, now)
}
