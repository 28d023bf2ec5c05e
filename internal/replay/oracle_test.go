package replay

import (
	"fmt"
	"math"

	"bwshare/internal/cluster"
	"bwshare/internal/core"
	"bwshare/internal/des"
	"bwshare/internal/trace"
)

// oracleRun is the reference replay driver: the scan-based matcher
// Run's indexed matching must agree with bit for bit. It keeps every
// pending send and receive in posting order and, after each post,
// pairs the first receive that has a compatible send with the
// earliest-posted such send, until no pair matches. It allocates per
// message and rescans all pending operations on each post.
func oracleRun(eng core.Engine, clu cluster.Cluster, place cluster.Placement, tr *trace.Trace) (*Result, error) {
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
	s := &oracle{
		eng:    eng,
		clu:    clu,
		place:  place,
		q:      new(des.Queue),
		flows:  make(map[int]*oracleTransfer),
		remain: tr.NumTasks(),
	}
	s.res.Engine = eng.Name()
	s.res.Tasks = make([]TaskResult, tr.NumTasks())
	for rank := range tr.Tasks {
		s.tasks = append(s.tasks, &oracleTask{rank: rank, prog: tr.Tasks[rank]})
		s.res.Tasks[rank].Rank = rank
	}
	for _, t := range s.tasks {
		s.step(t, 0)
	}
	if err := s.loop(); err != nil {
		return nil, err
	}
	return &s.res, nil
}

type oraclePhase int

const (
	oracleReady oraclePhase = iota
	oracleComputing
	oracleSendWait
	oracleRecvWait
	oracleBarrier
	oracleDone
)

type oracleSend struct {
	from, to int
	tag      int
	bytes    float64
	atTime   float64
	seq      int
}

type oracleRecv struct {
	by   int
	from int
	tag  int
	seq  int
}

type oracleTask struct {
	rank    int
	prog    trace.Task
	pc      int
	phase   oraclePhase
	opStart float64
}

type oracleTransfer struct {
	from, to  int
	sendStart float64
	recvStart float64
	matched   float64
	bytes     float64
	local     bool
}

type oracle struct {
	eng    core.Engine
	clu    cluster.Cluster
	place  cluster.Placement
	q      *des.Queue
	tasks  []*oracleTask
	sends  []*oracleSend
	recvs  []*oracleRecv
	seq    int
	flows  map[int]*oracleTransfer
	inBar  int
	res    Result
	remain int
}

func (s *oracle) loop() error {
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
			for _, c := range done {
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

func (s *oracle) step(t *oracleTask, now float64) {
	if t.pc >= len(t.prog) {
		t.phase = oracleDone
		s.res.Tasks[t.rank].Finish = now
		if now > s.res.Makespan {
			s.res.Makespan = now
		}
		s.remain--
		return
	}
	ev := t.prog[t.pc]
	switch ev.Kind {
	case trace.Compute:
		t.phase = oracleComputing
		t.pc++
		s.q.Schedule(now+ev.Duration, func() { s.step(t, s.q.Now()) })
	case trace.Send:
		t.phase = oracleSendWait
		t.opStart = now
		s.seq++
		s.sends = append(s.sends, &oracleSend{
			from: t.rank, to: ev.Peer, tag: ev.Tag, bytes: ev.Bytes,
			atTime: now, seq: s.seq,
		})
		s.match(now)
	case trace.Recv:
		t.phase = oracleRecvWait
		t.opStart = now
		s.seq++
		s.recvs = append(s.recvs, &oracleRecv{by: t.rank, from: ev.Peer, tag: ev.Tag, seq: s.seq})
		s.match(now)
	case trace.Barrier:
		t.phase = oracleBarrier
		s.inBar++
		live := 0
		for _, u := range s.tasks {
			if u.phase != oracleDone {
				live++
			}
		}
		if s.inBar == live {
			s.inBar = 0
			for _, u := range s.tasks {
				if u.phase == oracleBarrier {
					u.phase = oracleReady
					u.pc++
					u := u
					s.q.Schedule(now, func() { s.step(u, s.q.Now()) })
				}
			}
		}
	default:
		panic(fmt.Sprintf("replay: unknown event kind %q", ev.Kind))
	}
}

func (s *oracle) match(now float64) {
	for {
		si, ri := s.findMatch()
		if si < 0 {
			return
		}
		snd := s.sends[si]
		s.sends = append(s.sends[:si], s.sends[si+1:]...)
		rcv := s.recvs[ri]
		s.recvs = append(s.recvs[:ri], s.recvs[ri+1:]...)
		tr := &oracleTransfer{
			from:      snd.from,
			to:        rcv.by,
			sendStart: snd.atTime,
			recvStart: s.tasks[rcv.by].opStart,
			matched:   now,
			bytes:     snd.bytes,
			local:     s.place.SameNode(snd.from, rcv.by),
		}
		if tr.local {
			s.res.LocalTransfers++
			s.q.Schedule(now+s.clu.LocalCopyTime(tr.bytes), func() { s.finishTransfer(tr, s.q.Now()) })
		} else {
			s.res.NetTransfers++
			s.flows[s.eng.StartFlow(s.place[snd.from], s.place[rcv.by], tr.bytes, now)] = tr
		}
	}
}

// findMatch returns the indices of the first matching (send, recv) pair
// in posting order, or (-1, -1).
func (s *oracle) findMatch() (int, int) {
	for ri, r := range s.recvs {
		best, bestSeq := -1, math.MaxInt64
		for si, snd := range s.sends {
			if snd.to != r.by || snd.tag != r.tag {
				continue
			}
			if r.from != trace.AnySource && snd.from != r.from {
				continue
			}
			if snd.seq < bestSeq {
				best, bestSeq = si, snd.seq
			}
		}
		if best >= 0 {
			return best, ri
		}
	}
	return -1, -1
}

func (s *oracle) finishNetTransfer(flowID int, now float64) {
	tr, ok := s.flows[flowID]
	if !ok {
		panic(fmt.Sprintf("replay: engine reported unknown flow %d", flowID))
	}
	delete(s.flows, flowID)
	s.finishTransfer(tr, now)
}

func (s *oracle) finishTransfer(tr *oracleTransfer, now float64) {
	sres := &s.res.Tasks[tr.from]
	sres.SendTime += now - tr.sendStart
	sres.BlockedSend += tr.matched - tr.sendStart
	sres.Sends++
	if !tr.local {
		sres.NetBytes += tr.bytes
	}
	s.res.Tasks[tr.to].RecvTime += now - tr.recvStart
	sender, receiver := s.tasks[tr.from], s.tasks[tr.to]
	sender.phase, receiver.phase = oracleReady, oracleReady
	sender.pc++
	receiver.pc++
	s.step(sender, now)
	s.step(receiver, now)
}
