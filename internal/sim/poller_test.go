package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// pollWorld is one run of the poller property test. Its pollers are
// either parked (Poller.Park/Wake) or the reference: the plain
// self-rescheduling After(period, fn) chain, whose idle firings are
// no-ops. Every real action — an event handler, a fused or continued
// step, a poll that finds work — appends (time, id) to log, so two
// worlds driven by the same seed must log identical sequences.
type pollWorld struct {
	s      *Simulator
	park   bool
	rng    *rand.Rand
	log    []string
	nextID int
	budget int
	polls  []*pollModel
}

type pollModel struct {
	w      *pollWorld
	idx    int
	period Duration
	work   int
	fn     Event
	p      *Poller // parked world only
	// Reference world only: idle firings after the first of an idle
	// stretch — the ones the parked world elides.
	idle  bool
	noops uint64
}

func (w *pollWorld) record(at Time, what string, id int) {
	w.log = append(w.log, fmt.Sprintf("%d %s %d", at, what, id))
}

func (m *pollModel) fire(s *Simulator) {
	w := m.w
	if m.work == 0 {
		if w.park {
			m.p.Park()
			return
		}
		if m.idle {
			m.noops++
		}
		m.idle = true
		s.After(m.period, m.fn)
		return
	}
	m.work--
	m.idle = false
	skipped := m.noops
	if w.park {
		skipped = m.p.Skipped()
	}
	w.record(s.Now(), fmt.Sprintf("poll%d/skipped%d", m.idx, skipped), 0)
	s.After(m.period, m.fn)
	w.act(s)
}

// wake hands poller j one unit of work, waking it when parked.
func (w *pollWorld) wake(j int) {
	m := w.polls[j]
	m.work++
	if w.park {
		m.p.Wake()
	}
}

// delay draws a short delay; small integers make ties with the pollers'
// grids frequent, in both tie directions.
func (w *pollWorld) delay() Duration { return Duration(w.rng.Intn(13)) }

func (w *pollWorld) newID() int { w.nextID++; return w.nextID }

func (w *pollWorld) plain(id int) Event {
	return func(s *Simulator) {
		w.record(s.Now(), "plain", id)
		w.act(s)
	}
}

func argEv(s *Simulator, a Arg) {
	w := a.Obj.(*pollWorld)
	w.record(s.Now(), "arg", a.I0)
	w.act(s)
}

// delays draws a chain's step delays up front, packed four bits each,
// so a chain consumes the same random draws whether its steps run
// inline or as separate events.
func (w *pollWorld) delays(steps int) uint64 {
	var d uint64
	for i := 0; i < steps; i++ {
		d |= uint64(w.delay()) << (4 * i)
	}
	return d
}

// contEv walks a ContinueAt chain: a.U0 holds the remaining step
// delays and a.U1 their count. It yields when an interleaving real
// event precedes the next step.
func contEv(s *Simulator, a Arg) {
	w := a.Obj.(*pollWorld)
	d, steps := a.U0, a.U1
	for {
		w.record(s.Now(), "cont", a.I0)
		if steps == 0 {
			return
		}
		t := s.Now().Add(Duration(d & 15))
		d, steps = d>>4, steps-1
		if !s.ContinueAt(t) {
			s.YieldArg(t, contEv, Arg{Obj: w, U0: d, U1: steps, I0: a.I0})
			return
		}
	}
}

// fuse walks a FuseAt chain of steps with packed delays d, scheduling
// the rest as a fresh event when the fuse is refused.
func (w *pollWorld) fuse(s *Simulator, id int, d uint64, steps int) {
	for ; steps > 0; d, steps = d>>4, steps-1 {
		t := s.Now().Add(Duration(d & 15))
		if !s.FuseAt(t) {
			rest, rd := steps-1, d>>4
			s.At(t, func(s *Simulator) {
				w.record(s.Now(), "fuse", id)
				w.fuse(s, id, rd, rest)
			})
			return
		}
		w.record(t, "fuse", id)
	}
}

// act performs a handler's random follow-up work.
func (w *pollWorld) act(s *Simulator) {
	if w.budget <= 0 {
		return
	}
	w.budget--
	for n := w.rng.Intn(3); n > 0; n-- {
		switch w.rng.Intn(6) {
		case 0:
			s.At(s.Now().Add(w.delay()), w.plain(w.newID()))
		case 1:
			s.AtArgNamed(s.Now().Add(w.delay()), "", argEv, Arg{Obj: w, I0: w.newID()})
		case 2, 3:
			w.wake(w.rng.Intn(len(w.polls)))
		case 4:
			// A fused chain moves the clock, so like every fused walk in
			// the models it is the handler's last action.
			steps := 1 + w.rng.Intn(4)
			w.fuse(s, w.newID(), w.delays(steps), steps)
			return
		case 5:
			steps := w.rng.Intn(4)
			s.AtArgNamed(s.Now().Add(w.delay()), "", contEv, Arg{Obj: w, U0: w.delays(steps), U1: uint64(steps), I0: w.newID()})
		}
	}
}

// runPollWorld drives one world from seed: 1–4 pollers (coinciding
// grids, offset starts, mixed periods), random real events, and
// RunUntil segments with external At calls and wakes between them.
func runPollWorld(seed int64, park bool) []string {
	cfg := rand.New(rand.NewSource(seed))
	w := &pollWorld{s: New(), park: park, rng: rand.New(rand.NewSource(seed * 7919)), budget: 400}
	n := 1 + cfg.Intn(4)
	for i := 0; i < n; i++ {
		m := &pollModel{w: w, idx: i, period: 4}
		if cfg.Intn(3) == 0 {
			m.period = Duration(3 + cfg.Intn(4))
		}
		m.fn = m.fire
		if park {
			m.p = w.s.NewPoller(m.period, m.fn)
		}
		w.polls = append(w.polls, m)
		start := Time(0)
		if cfg.Intn(3) == 0 {
			start = Time(cfg.Intn(8))
		}
		w.s.At(start, m.fn)
	}
	for i := 0; i < 6; i++ {
		w.s.At(Time(cfg.Intn(20)), w.plain(w.newID()))
	}
	for seg := 0; seg < 40; seg++ {
		h := w.s.Now().Add(Duration(1 + cfg.Intn(60)))
		w.s.RunUntil(h)
		w.record(w.s.Now(), "pending", w.s.Pending())
		for k := cfg.Intn(3); k > 0; k-- {
			switch cfg.Intn(3) {
			case 0:
				w.wake(cfg.Intn(n))
			default:
				// Between runs: at the horizon itself or just past it,
				// so external events tie with parked firings.
				w.s.At(w.s.Now().Add(Duration(cfg.Intn(6))), w.plain(w.newID()))
			}
		}
	}
	return w.log
}

// TestPollerMatchesReschedulingChain checks the parked-poller kernel
// against the reference chain of scheduled no-op polls over random
// mixes of plain and argful events, FuseAt and ContinueAt/YieldArg
// chains, wakes landing on grid instants, coinciding grids of 2–4
// pollers and RunUntil horizon splits with external At calls: the real
// actions, the skip counts seen by each woken poll and Pending() after
// every segment must all match.
func TestPollerMatchesReschedulingChain(t *testing.T) {
	seeds := 400
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		ref := runPollWorld(seed, false)
		got := runPollWorld(seed, true)
		for i := 0; i < len(ref) || i < len(got); i++ {
			var r, g string
			if i < len(ref) {
				r = ref[i]
			}
			if i < len(got) {
				g = got[i]
			}
			if r != g {
				t.Fatalf("seed %d: action %d differs: reference %q, parked %q", seed, i, r, g)
			}
		}
	}
}

// TestPollerCoincidingGridsKeepOrder: pollers parked on one grid in a
// known order keep that order when woken together after a long idle
// stretch, whichever is woken first.
func TestPollerCoincidingGridsKeepOrder(t *testing.T) {
	s := New()
	var order []int
	var ps []*Poller
	work := make([]bool, 3)
	for i := 0; i < 3; i++ {
		i := i
		var p *Poller
		fn := func(s *Simulator) {
			if !work[i] {
				p.Park()
				return
			}
			work[i] = false
			order = append(order, i)
		}
		p = s.NewPoller(200, fn)
		ps = append(ps, p)
		s.At(0, fn)
	}
	s.RunUntil(1_000_000)
	if s.Processed() != 3 || s.Pending() != 3 {
		t.Fatalf("processed %d pending %d, want 3 and 3", s.Processed(), s.Pending())
	}
	s.At(1_000_100, func(*Simulator) {
		for _, i := range []int{2, 0, 1} {
			work[i] = true
			ps[i].Wake()
		}
	})
	s.RunUntil(2_000_000)
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("woken order %v, want [0 1 2]", order)
	}
	for i, p := range ps {
		// Parked at 200, woken for the firing at 1_000_200: the
		// firings 200..1_000_000 were elided.
		if p.Skipped() != 5000 {
			t.Fatalf("poller %d skipped %d firings, want 5000", i, p.Skipped())
		}
	}
}

// TestPollerParkAllocatesNothing: parking, advancing and waking reuse
// the simulator's preallocated parked set and event slab.
func TestPollerParkAllocatesNothing(t *testing.T) {
	s := New()
	work := false
	var p *Poller
	fn := func(s *Simulator) {
		if !work {
			p.Park()
			return
		}
		work = false
		s.After(200, p.fn)
	}
	p = s.NewPoller(200, fn)
	wake := func(*Simulator) { work = true; p.Wake() }
	s.At(0, fn)
	s.RunUntil(10_000)
	allocs := testing.AllocsPerRun(100, func() {
		s.After(5_000, wake)
		s.RunUntil(s.Now().Add(20_000))
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per park/wake cycle, want 0", allocs)
	}
}
