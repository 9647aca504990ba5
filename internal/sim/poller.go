package sim

// Poller is a self-rescheduling handler — conceptually the chain
//
//	fn := func(s *Simulator) { ...; s.After(period, fn) }
//
// — whose firings can be elided while they have nothing to do. A
// polling driver that finds every ring empty calls Park instead of
// After: the kernel then records the next firing as an instant and an
// ordering seq instead of queueing it, and steps over firings lazily
// without touching the wheel or the heap. Wake, called when the
// polled state changes (a descriptor completes, a stall is injected),
// turns the pending firing back into a queued event at exactly the
// (at, seq) slot the chain of scheduled no-op firings would have given
// it, so a run with parked pollers executes the same real handlers at
// the same instants and in the same order as one that re-polls.
//
// While parked the firings must be no-ops: the model may not observe
// them except through Skipped.
type Poller struct {
	s      *Simulator
	fn     Event
	period Duration

	// at/seq order the next firing while parked. seq is drawn from the
	// simulator's seq counter when the firing would have been scheduled,
	// so the firing precedes a pending event e iff
	// at < e.at || (at == e.at && seq < e.seq) — the rule of lessEv.
	at      Time
	seq     uint64
	parked  bool
	skipped uint64

	// Scratch of one advance (see advancePollers): the number of
	// firings elided and the instant of the last of them.
	k    int64
	last Time
}

// NewPoller registers a poller that runs fn every period while woken.
// It starts unparked: the owner drives fn itself (typically scheduling
// its first call) and calls Park from fn's dispatch when idle.
func (s *Simulator) NewPoller(period Duration, fn Event) *Poller {
	if period <= 0 {
		panic("sim: non-positive poller period")
	}
	if fn == nil {
		panic("sim: nil event")
	}
	return &Poller{s: s, fn: fn, period: period}
}

// Park stands in for After(period, fn) from inside fn's own dispatch
// (or the fused work it chains into): the next firing is due one
// period from now, but it and every later firing are elided until
// Wake. Parking an already parked poller panics.
func (p *Poller) Park() {
	if p.parked {
		panic("sim: poller already parked")
	}
	s := p.s
	s.seq++
	p.at, p.seq, p.parked = s.now.Add(p.period), s.seq, true
	s.parked = append(s.parked, p)
	if p.at < s.parkAt || (p.at == s.parkAt && p.seq < s.parkSeq) {
		s.parkAt, s.parkSeq = p.at, p.seq
	}
}

// Wake queues a parked poller's next firing as a real event at its
// exact (at, seq) slot, so fn runs there. It reports whether the
// poller was parked; waking an unparked poller does nothing.
func (p *Poller) Wake() bool {
	if !p.parked {
		return false
	}
	s := p.s
	if p.at < s.now {
		panic("sim: woken poller behind the clock")
	}
	p.parked = false
	for i, q := range s.parked {
		if q == p {
			last := len(s.parked) - 1
			s.parked[i] = s.parked[last]
			s.parked[last] = nil
			s.parked = s.parked[:last]
			break
		}
	}
	if p.at == s.parkAt && p.seq == s.parkSeq {
		s.refreshParkMin()
	}
	s.enqueue(schedEvent{at: p.at, seq: p.seq, fn: p.fn})
	return true
}

// Skipped returns how many firings have been elided while parked, over
// the poller's whole life. Owners that count their polls (a round-robin
// port cursor) add the difference across a park to catch up on Wake.
func (p *Poller) Skipped() uint64 { return p.skipped }

// refreshParkMin recomputes the earliest parked firing (parkAt =
// Never when nothing is parked).
func (s *Simulator) refreshParkMin() {
	s.parkAt, s.parkSeq = Never, 0
	for _, p := range s.parked {
		if p.at < s.parkAt || (p.at == s.parkAt && p.seq < s.parkSeq) {
			s.parkAt, s.parkSeq = p.at, p.seq
		}
	}
}

// advancePollers steps every parked poller over the firings that order
// before (at, seq): the next real event, or a fused continuation —
// (t, curSeq) for ContinueAt, (t, s.seq+1) for FuseAt, whose inline
// work stands for an event scheduled now — or, at the end of
// RunUntil(h), (h+1, 0). Each poller jumps in O(1): its first pending
// firing is tested against the bound as an event, and every later one
// was scheduled during the elided stretch, after everything queued and
// after the bound itself, so it precedes iff it is earlier than at.
//
// The elided firings of different pollers would have drawn their
// successors' seqs in the order they ran, so the advanced pollers take
// fresh seqs in that order (advancedBefore).
func (s *Simulator) advancePollers(at Time, seq uint64) {
	m := 0
	for i := 0; i < len(s.parked); i++ {
		p := s.parked[i]
		if !(p.at < at || (p.at == at && p.seq < seq)) {
			continue
		}
		var n int64
		if d := int64(at - p.at); d > 0 {
			n = (d - 1) / int64(p.period)
		}
		p.k = n + 1
		p.last = p.at.Add(Duration(n) * p.period)
		p.at = p.last.Add(p.period)
		p.skipped += uint64(p.k)
		s.parked[i], s.parked[m] = s.parked[m], p
		m++
	}
	adv := s.parked[:m]
	for i := 1; i < len(adv); i++ {
		p := adv[i]
		j := i - 1
		for j >= 0 && advancedBefore(p, adv[j]) {
			adv[j+1] = adv[j]
			j--
		}
		adv[j+1] = p
	}
	for _, p := range adv {
		s.seq++
		p.seq = s.seq
	}
	s.refreshParkMin()
}

// advancedBefore orders the pollers of one advance for renumbering.
// Only pollers whose next firings now coincide need a particular
// order: the one in which their last elided firings ran, since each
// drew its successor's seq. Lasts at different instants (different
// periods) order by time. At one instant (same period), the poller with
// fewer elided firings goes first: walking back from the last firing
// it reaches its first one, which keeps an older seq, while the other
// is still on a firing scheduled during the elided stretch; with as
// many, both first firings share an instant and their own seqs (not
// yet renumbered) decide. Pollers at different next instants just
// need some total order, so the key starts with the next instant.
func advancedBefore(a, b *Poller) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.last != b.last {
		return a.last < b.last
	}
	if a.k != b.k {
		return a.k < b.k
	}
	return a.seq < b.seq
}
