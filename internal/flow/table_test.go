package flow

import (
	"math/rand"
	"testing"
)

// TestTableBasic covers the fundamental contract on a handful of keys,
// including key zero (legal: emptiness is tracked by probe distance,
// not a reserved key).
func TestTableBasic(t *testing.T) {
	tb := New[int](0)
	if _, ok := tb.Get(0); ok {
		t.Fatal("empty table claims key 0")
	}
	tb.Put(0, 10)
	tb.Put(1, 11)
	tb.Put(1<<63, 12)
	if v, ok := tb.Get(0); !ok || v != 10 {
		t.Fatalf("Get(0) = %d,%v", v, ok)
	}
	if v, ok := tb.Get(1 << 63); !ok || v != 12 {
		t.Fatalf("Get(1<<63) = %d,%v", v, ok)
	}
	tb.Put(1, 21) // update
	if v, _ := tb.Get(1); v != 21 {
		t.Fatalf("update lost: %d", v)
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if !tb.Delete(1) || tb.Delete(1) {
		t.Fatal("Delete(1) contract")
	}
	if _, ok := tb.Get(1); ok {
		t.Fatal("deleted key still present")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len after delete = %d", tb.Len())
	}
}

// TestTableVsMapProperty drives a long randomized insert/update/
// delete/lookup sequence against a map reference. Key space is kept
// narrow so collisions, displacement chains and backward shifts are
// exercised constantly; the table must agree with the map after every
// operation batch and at the end entry-for-entry via Range.
func TestTableVsMapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tb := New[uint64](0)
	ref := make(map[uint64]uint64)
	const ops = 200000
	for i := 0; i < ops; i++ {
		k := uint64(rng.Intn(4096)) // narrow: heavy collision pressure
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // insert/update
			v := rng.Uint64()
			tb.Put(k, v)
			ref[k] = v
		case 4, 5: // delete
			want := false
			if _, ok := ref[k]; ok {
				want = true
				delete(ref, k)
			}
			if got := tb.Delete(k); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, want)
			}
		default: // lookup
			wv, wok := ref[k]
			gv, gok := tb.Get(k)
			if gok != wok || (gok && gv != wv) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", i, k, gv, gok, wv, wok)
			}
		}
		if tb.Len() != len(ref) {
			t.Fatalf("op %d: Len %d != map %d", i, tb.Len(), len(ref))
		}
	}
	seen := make(map[uint64]uint64)
	tb.Range(func(k uint64, v *uint64) bool {
		if _, dup := seen[k]; dup {
			t.Fatalf("Range yielded key %d twice", k)
		}
		seen[k] = *v
		return true
	})
	if len(seen) != len(ref) {
		t.Fatalf("Range yielded %d entries, want %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if seen[k] != v {
			t.Fatalf("Range[%d] = %d, want %d", k, seen[k], v)
		}
	}
}

// TestTableLoadFactorSweep fills a growable table to several load
// levels, checking the 7/8 bound holds and that every key stays
// reachable through each doubling.
func TestTableLoadFactorSweep(t *testing.T) {
	tb := New[uint64](0)
	for n := uint64(1); n <= 1<<16; n++ {
		tb.Put(n*0x9E3779B9, n)
		if lf := tb.LoadFactor(); lf > float64(maxLoadNum)/float64(maxLoadDen) {
			t.Fatalf("n=%d: load factor %.3f exceeds bound", n, lf)
		}
	}
	if tb.Grows() == 0 {
		t.Fatal("64k inserts never grew the table")
	}
	for n := uint64(1); n <= 1<<16; n++ {
		if v, ok := tb.Get(n * 0x9E3779B9); !ok || v != n {
			t.Fatalf("key %d lost across growth: %d,%v", n, v, ok)
		}
	}
}

// TestTableFixedRefusal checks the hardware-table mode: a fixed table
// accepts exactly its capacity, refuses (and counts) further inserts,
// still updates resident keys while full, never grows, and frees a
// slot for a new key after a delete.
func TestTableFixedRefusal(t *testing.T) {
	const cap = 1000
	tb := NewFixed[int](cap)
	for k := 0; k < cap; k++ {
		if !tb.Put(uint64(k), k) {
			t.Fatalf("Put %d refused below capacity", k)
		}
	}
	if tb.Put(uint64(cap), 0) {
		t.Fatal("Put beyond capacity accepted")
	}
	if tb.Refusals() != 1 {
		t.Fatalf("Refusals = %d", tb.Refusals())
	}
	if !tb.Put(5, 500) { // resident update while full
		t.Fatal("update of resident key refused while full")
	}
	if v, _ := tb.Get(5); v != 500 {
		t.Fatalf("full-table update lost: %d", v)
	}
	if tb.Grows() != 0 {
		t.Fatal("fixed table grew")
	}
	if !tb.Delete(7) {
		t.Fatal("Delete(7) failed")
	}
	if !tb.Put(uint64(cap), 1) {
		t.Fatal("Put refused after a delete freed a slot")
	}
	if tb.Len() != cap {
		t.Fatalf("Len = %d, want %d", tb.Len(), cap)
	}
}

// TestTableRangeDeterministic re-runs one operation history twice and
// requires identical Range order — the property the byte-identical
// output guarantee leans on.
func TestTableRangeDeterministic(t *testing.T) {
	build := func() []uint64 {
		rng := rand.New(rand.NewSource(7))
		tb := New[int](0)
		for i := 0; i < 20000; i++ {
			k := uint64(rng.Intn(2048))
			if rng.Intn(3) == 0 {
				tb.Delete(k)
			} else {
				tb.Put(k, i)
			}
		}
		var order []uint64
		tb.Range(func(k uint64, _ *int) bool {
			order = append(order, k)
			return true
		})
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("orders differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestTableSteadyStateAllocs proves the churn steady state stays off
// the heap: once the population peak has been seen, endless
// insert/delete cycles allocate nothing.
func TestTableSteadyStateAllocs(t *testing.T) {
	tb := New[uint64](0)
	for k := uint64(0); k < 1<<14; k++ {
		tb.Put(k, k)
	}
	next := uint64(1 << 14)
	old := uint64(0)
	avg := testing.AllocsPerRun(1000, func() {
		tb.Delete(old)
		tb.Put(next, next)
		old++
		next++
	})
	if avg != 0 {
		t.Fatalf("steady-state churn allocates %.2f per op", avg)
	}
}
