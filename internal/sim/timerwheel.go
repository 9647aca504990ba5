// TimerWheel: a hashed timing wheel for bulk cancellable timeouts,
// layered on the simulator.
//
// The per-event timeout pattern — one scheduled event per outstanding
// request, firing as a no-op when the response won — costs a
// heap/wheel entry and a dispatch per request even when nothing times
// out. At a million outstanding requests that is a million queued
// events doing nothing. The hashed wheel replaces them
// with ONE scheduled event per granularity tick: timers live in
// per-slot intrusive doubly-linked lists carved from a single slab,
// so Arm is a list append, Cancel an unlink (both O(1), both
// allocation-free once the slab is warm), and each tick fires only
// the due timers of one slot. Timers beyond one rotation stay in
// their slot and are revisited ("cascaded") once per rotation — the
// classic hashed-wheel trade: O(1) operations against a bounded
// inspection overhead of population/slots per tick.
//
// Determinism contract: a timer armed at time A with expiry E fires
// at T = ceil(E/gran)*gran — the first wheel tick at or after E — and
// timers sharing a tick fire in arm order (slot lists append, and
// rotation survivors keep their relative order). T depends only on E
// and the granularity, never on the population or on cancel history,
// so wheel-driven models stay byte-identical at any -shards/-j
// setting: each wheel is private to one event domain and its tick is
// an ordinary simulator event.
//
// The wheel path is not event-identical to per-event timeouts:
// expiries quantize to the granularity and cancels remove (rather
// than fire-and-noop) the timer, changing the simulator's event
// sequence. Every network client (internal/net's request core) keeps
// its deadlines on a private wheel.

package sim

// TimerHandle identifies an armed timer for cancellation. The zero
// handle is never issued and is safe to cancel (a no-op). Handles are
// generation-tagged: a handle kept past its timer's fire or cancel
// stays invalid even after the slab slot is recycled.
type TimerHandle uint64

// timer slot states (wheelTimer.slot).
const (
	timerFree    = -1 // on the free list
	timerPending = -2 // unlinked by the current tick, fire imminent
)

// wheelTimer is one slab entry: intrusive list links, the absolute
// expiry, and the callback. 8-byte fields first keeps the struct
// packed; the Arg payload is inline so arming allocates nothing.
type wheelTimer struct {
	expiry Time
	fn     ArgEvent
	arg    Arg
	next   int32
	prev   int32
	slot   int32 // owning wheel slot, or timerFree/timerPending
	gen    uint32
}

// timerList is one wheel slot's intrusive list (indices into the
// slab; -1 empty).
type timerList struct {
	head, tail int32
}

// TimerWheelStats counts wheel activity for the observability
// registry.
type TimerWheelStats struct {
	Armed    uint64 // Arm calls
	Fired    uint64 // timers whose callback ran
	Canceled uint64 // live timers removed by Cancel
	Ticks    uint64 // tick events executed
	Cascades uint64 // timers inspected but kept for a later rotation
}

// TimerWheel is a hashed timing wheel. Construct with NewTimerWheel;
// not safe for concurrent use (one wheel per event domain).
type TimerWheel struct {
	s     *Simulator
	gran  Duration
	slots []timerList
	mask  uint64

	slab []wheelTimer
	free []int32

	count  int
	cursor uint64 // absolute index of the next tick; tick time = cursor*gran
	armed  bool   // a tick event is scheduled
	stats  TimerWheelStats

	// due is the current tick's unlinked-but-unfired batch, reused
	// across ticks. Gen-tagged so a callback cancelling a later due
	// timer skips it instead of firing stale state.
	due []TimerHandle
}

// NewTimerWheel builds a wheel on s with the given slot granularity
// and slot count (rounded up to a power of two). One rotation spans
// gran*slots; timers beyond it cascade — still correct, just
// re-inspected once per rotation.
func NewTimerWheel(s *Simulator, gran Duration, slots int) *TimerWheel {
	if s == nil {
		panic("sim: timer wheel needs a simulator")
	}
	if gran <= 0 {
		panic("sim: timer wheel granularity must be positive")
	}
	if slots <= 0 {
		panic("sim: timer wheel needs slots")
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	w := &TimerWheel{s: s, gran: gran, slots: make([]timerList, n), mask: uint64(n - 1)}
	for i := range w.slots {
		w.slots[i] = timerList{head: -1, tail: -1}
	}
	return w
}

// Gran returns the wheel's tick granularity.
func (w *TimerWheel) Gran() Duration { return w.gran }

// Len returns the number of armed timers. Safe on a nil wheel (0).
func (w *TimerWheel) Len() int {
	if w == nil {
		return 0
	}
	return w.count
}

// Stats returns the activity counters. Safe on a nil wheel (zero).
func (w *TimerWheel) Stats() TimerWheelStats {
	if w == nil {
		return TimerWheelStats{}
	}
	return w.stats
}

// Arm schedules fn(arg) to fire at the first wheel tick at or after
// now+d (d must be positive) and returns a handle for Cancel. O(1):
// a slab allocation off the free list and a list append.
func (w *TimerWheel) Arm(d Duration, fn ArgEvent, arg Arg) TimerHandle {
	if d <= 0 {
		panic("sim: timer wheel delay must be positive")
	}
	return w.armAt(w.s.Now().Add(d), fn, arg)
}

func (w *TimerWheel) armAt(expiry Time, fn ArgEvent, arg Arg) TimerHandle {
	if fn == nil {
		panic("sim: nil timer callback")
	}
	// First tick at or after the expiry. expiry > now always (positive
	// delay), so this tick index is never behind the wheel cursor: the
	// cursor trails now by at most one granularity.
	tick := (uint64(expiry) + uint64(w.gran) - 1) / uint64(w.gran)
	if !w.armed {
		w.cursor = uint64(w.s.Now())/uint64(w.gran) + 1
		w.armed = true
		w.s.AtArgNamed(Time(w.cursor*uint64(w.gran)), "timer-wheel-tick", timerWheelTickEv, Arg{Obj: w})
	}
	i := w.alloc()
	tm := &w.slab[i]
	tm.expiry = expiry
	tm.fn = fn
	tm.arg = arg
	sl := &w.slots[tick&w.mask]
	tm.slot = int32(tick & w.mask)
	tm.next = -1
	tm.prev = sl.tail
	if sl.tail >= 0 {
		w.slab[sl.tail].next = i
	} else {
		sl.head = i
	}
	sl.tail = i
	w.count++
	w.stats.Armed++
	return handleOf(i, tm.gen)
}

// Cancel disarms the timer identified by h, reporting whether it was
// still live (armed, or unlinked by the running tick but not yet
// fired). O(1): a list unlink and a free-list push. Stale handles —
// fired, already cancelled, or zero — return false.
func (w *TimerWheel) Cancel(h TimerHandle) bool {
	i := int32(h >> 32)
	if h == 0 || int(i) >= len(w.slab) {
		return false
	}
	tm := &w.slab[i]
	if tm.gen != uint32(h) {
		return false
	}
	switch tm.slot {
	case timerFree:
		return false
	case timerPending:
		// Unlinked by the in-progress tick: count was already taken at
		// unlink; releasing bumps gen so the fire loop skips it.
		w.release(i)
	default:
		w.unlink(i)
		w.count--
		w.release(i)
	}
	w.stats.Canceled++
	return true
}

// unlink removes slab entry i from its slot list.
func (w *TimerWheel) unlink(i int32) {
	tm := &w.slab[i]
	sl := &w.slots[tm.slot]
	if tm.prev >= 0 {
		w.slab[tm.prev].next = tm.next
	} else {
		sl.head = tm.next
	}
	if tm.next >= 0 {
		w.slab[tm.next].prev = tm.prev
	} else {
		sl.tail = tm.prev
	}
}

// alloc takes a slab slot off the free list (or extends the slab —
// amortized; never in steady state once the peak population has been
// seen).
func (w *TimerWheel) alloc() int32 {
	if n := len(w.free); n > 0 {
		i := w.free[n-1]
		w.free = w.free[:n-1]
		return i
	}
	w.slab = append(w.slab, wheelTimer{gen: 1})
	return int32(len(w.slab) - 1)
}

// release recycles slab entry i: the generation bump invalidates
// every outstanding handle to it.
func (w *TimerWheel) release(i int32) {
	tm := &w.slab[i]
	tm.gen++
	if tm.gen == 0 { // keep handles non-zero after wrap
		tm.gen = 1
	}
	tm.slot = timerFree
	tm.fn = nil
	tm.arg = Arg{}
	w.free = append(w.free, i)
}

func handleOf(i int32, gen uint32) TimerHandle {
	return TimerHandle(uint64(uint32(i))<<32 | uint64(gen))
}

// timerWheelTickEv advances the wheel one slot: due timers (expiry at
// or before the tick time) are unlinked in arm order and fired;
// survivors cascade to the next rotation. The wheel reschedules its
// tick while timers remain and suspends when empty — an idle wheel
// costs the simulator nothing.
func timerWheelTickEv(s *Simulator, a Arg) {
	a.Obj.(*TimerWheel).tick(s)
}

func (w *TimerWheel) tick(s *Simulator) {
	t := Time(w.cursor * uint64(w.gran))
	sl := &w.slots[w.cursor&w.mask]
	w.stats.Ticks++

	// Phase 1: unlink the due batch. Collect-then-fire keeps the walk
	// safe against callbacks that arm into (or cancel from) this same
	// slot mid-tick.
	w.due = w.due[:0]
	for i := sl.head; i >= 0; {
		tm := &w.slab[i]
		next := tm.next
		if tm.expiry <= t {
			w.unlink(i)
			tm.slot = timerPending
			w.count--
			w.due = append(w.due, handleOf(i, tm.gen))
		} else {
			w.stats.Cascades++
		}
		i = next
	}
	// Phase 2: fire in arm order. A due timer cancelled by an earlier
	// callback in this batch has a bumped generation and is skipped.
	for _, h := range w.due {
		i := int32(h >> 32)
		tm := &w.slab[i]
		if tm.gen != uint32(h) {
			continue
		}
		fn, arg := tm.fn, tm.arg
		w.release(i)
		w.stats.Fired++
		fn(s, arg)
	}
	w.cursor++
	if w.count > 0 {
		s.AtArgNamed(Time(w.cursor*uint64(w.gran)), "timer-wheel-tick", timerWheelTickEv, Arg{Obj: w})
	} else {
		w.armed = false
	}
}
