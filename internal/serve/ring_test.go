package serve

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"ramsis/internal/profile"
	"ramsis/internal/sim"
)

// TestRingFIFOAcrossWrap interleaves pushes and pops so the head laps the
// backing array several times, checking FIFO order and length at every
// step against a plain-slice reference.
func TestRingFIFOAcrossWrap(t *testing.T) {
	var r pqRing
	var ref []int
	next := 0
	var popped []pendingQuery
	for round := 0; round < 50; round++ {
		for i := 0; i < 5; i++ {
			r.push(pendingQuery{q: sim.Query{ID: next}})
			ref = append(ref, next)
			next++
		}
		if got := r.len(); got != len(ref) {
			t.Fatalf("round %d: len %d, want %d", round, got, len(ref))
		}
		for i := 0; i < r.len(); i++ {
			if got := r.at(i).q.ID; got != ref[i] {
				t.Fatalf("round %d: at(%d) = %d, want %d", round, i, got, ref[i])
			}
		}
		k := 3
		popped = r.popInto(popped[:0], k)
		if len(popped) != k {
			t.Fatalf("round %d: popped %d, want %d", round, len(popped), k)
		}
		for i, pq := range popped {
			if pq.q.ID != ref[i] {
				t.Fatalf("round %d: pop order %d = %d, want %d", round, i, pq.q.ID, ref[i])
			}
		}
		ref = ref[k:]
	}
}

// TestRingGrowPreservesOrder forces a capacity doubling while the head is
// mid-array (the wrapped layout), which is the case grow has to relinearize.
func TestRingGrowPreservesOrder(t *testing.T) {
	var r pqRing
	var popped []pendingQuery
	// Fill to the initial capacity, then advance the head so the ring wraps.
	for i := 0; i < ringMinCap; i++ {
		r.push(pendingQuery{q: sim.Query{ID: i}})
	}
	popped = r.popInto(popped[:0], 10)
	for i := ringMinCap; i < 3*ringMinCap; i++ {
		r.push(pendingQuery{q: sim.Query{ID: i}}) // grows at least once mid-wrap
	}
	want := 10
	for r.len() > 0 {
		popped = r.popInto(popped[:0], 7)
		for _, pq := range popped {
			if pq.q.ID != want {
				t.Fatalf("popped %d, want %d", pq.q.ID, want)
			}
			want++
		}
	}
	if want != 3*ringMinCap {
		t.Fatalf("drained %d elements, want %d", want-10, 3*ringMinCap-10)
	}
}

// TestRingPopReleasesSlots checks that popInto zeroes vacated slots: a
// popped query's done channel and tenant state must not be retained by
// the ring's backing array.
func TestRingPopReleasesSlots(t *testing.T) {
	var r pqRing
	for i := 0; i < 4; i++ {
		r.push(pendingQuery{q: sim.Query{ID: i}, done: make(chan QueryResponse, 1), st: &tenantState{}})
	}
	_ = r.popInto(nil, 4)
	for i := range r.buf {
		if r.buf[i].done != nil || r.buf[i].st != nil {
			t.Fatalf("slot %d still retains popped query state", i)
		}
	}
}

// TestRingRandomizedAgainstReference drives the ring with a seeded random
// push/pop mix and cross-checks every observable against a slice model.
func TestRingRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var r pqRing
	var ref []int
	next := 0
	var popped []pendingQuery
	for op := 0; op < 20000; op++ {
		if rng.Intn(2) == 0 {
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				r.push(pendingQuery{q: sim.Query{ID: next}})
				ref = append(ref, next)
				next++
			}
		} else {
			k := rng.Intn(6)
			popped = r.popInto(popped[:0], k)
			if k > len(ref) {
				k = len(ref)
			}
			if len(popped) != k {
				t.Fatalf("op %d: popped %d, want %d", op, len(popped), k)
			}
			for i, pq := range popped {
				if pq.q.ID != ref[i] {
					t.Fatalf("op %d: pop order %d = %d, want %d", op, i, pq.q.ID, ref[i])
				}
			}
			ref = ref[k:]
		}
		if r.len() != len(ref) {
			t.Fatalf("op %d: len %d, want %d", op, r.len(), len(ref))
		}
	}
}

// TestRingConcurrentProducerConsumer exercises the ring under its real
// locking discipline with -race: one producer pushes a sequence while a
// consumer pops batches, and the consumer must observe a contiguous,
// strictly FIFO sequence with nothing lost or duplicated.
func TestRingConcurrentProducerConsumer(t *testing.T) {
	const total = 50000
	var (
		mu   sync.Mutex
		cond = sync.NewCond(&mu)
		r    pqRing
		done bool
	)
	go func() {
		for i := 0; i < total; i++ {
			mu.Lock()
			r.push(pendingQuery{q: sim.Query{ID: i}})
			cond.Signal()
			mu.Unlock()
		}
		mu.Lock()
		done = true
		cond.Signal()
		mu.Unlock()
	}()
	var scratch []pendingQuery
	want := 0
	for {
		mu.Lock()
		for r.len() == 0 && !done {
			cond.Wait()
		}
		if r.len() == 0 && done {
			mu.Unlock()
			break
		}
		scratch = r.popInto(scratch[:0], 8)
		mu.Unlock()
		for _, pq := range scratch {
			if pq.q.ID != want {
				t.Fatalf("consumed %d, want %d", pq.q.ID, want)
			}
			want++
		}
	}
	if want != total {
		t.Fatalf("consumed %d queries, want %d", want, total)
	}
}

// TestFrontendConcurrentHammer is the end-to-end race check of the queue
// path: many client goroutines issue blocking queries through the full
// enqueue → ring → dispatch → worker stack while Stop races the tail of
// the load. Every query must be answered exactly once (a response or an
// enqueue rejection, never neither — Do blocking forever would hang the
// test), and after Stop the outstanding count must return to zero.
func TestFrontendConcurrentHammer(t *testing.T) {
	const timeScale = 2000.0
	const clients = 16
	const perClient = 40
	urls := startWorkers(t, 2, sim.Deterministic{}, timeScale)
	f := &Frontend{
		Profiles:  profile.ImageSet(),
		SLO:       0.150,
		TimeScale: timeScale,
		Workers:   urls,
		process:   process{net: pipes},
		Select:    fixedSelector("shufflenet_v2_x0_5"),
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	var served, rejected [clients]int
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, eerr := f.Do("")
				if eerr != nil {
					rejected[c]++
					continue
				}
				if resp.Model == "" || resp.Batch < 1 {
					t.Errorf("client %d: malformed response %+v", c, resp)
				}
				served[c]++
			}
		}(c)
	}
	// Stop while the last clients are still in flight: enqueue must either
	// reject cleanly or the queued query must still be drained and served.
	time.Sleep(50 * time.Millisecond)
	_ = f.Stop()
	wg.Wait()
	totalServed, totalRejected := 0, 0
	for c := 0; c < clients; c++ {
		totalServed += served[c]
		totalRejected += rejected[c]
	}
	if totalServed+totalRejected != clients*perClient {
		t.Fatalf("answered %d+%d queries, want %d", totalServed, totalRejected, clients*perClient)
	}
	if totalServed == 0 {
		t.Fatal("no query was served before Stop")
	}
	if got := f.Outstanding(); got != 0 {
		t.Fatalf("outstanding = %d after Stop, want 0", got)
	}
	if st := f.Stats(); st.Served != totalServed {
		t.Fatalf("stats served %d, clients saw %d responses", st.Served, totalServed)
	}
}
