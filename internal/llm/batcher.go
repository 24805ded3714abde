package llm

import (
	"math"

	"ramsis/internal/telemetry"
)

// Request is one token-annotated query: a prompt of Prefill tokens to
// ingest and Decode output tokens to generate, arriving at Arrival modeled
// seconds.
type Request struct {
	ID      int
	Arrival float64
	Prefill int
	Decode  int
}

// Tokens returns the request's total token footprint — its KV reservation
// and its contribution to a worker's outstanding load.
func (q Request) Tokens() int { return q.Prefill + q.Decode }

// Selector picks the step model a worker's next engine step should run,
// from the worker's observable state: queued is the query count (waiting +
// running), outstandingTokens the unfinished token load, kvUsage the
// KV-cache occupancy fraction, and headSlack the oldest query's remaining
// deadline headroom in seconds. Returning a negative index keeps the
// current model. A Selector that is not also a RangeSelector is consulted
// exactly once at every step boundary — the boundaries inside a decode run
// that Batcher.Begin lands itself included — so a stateful selector sees
// the same call sequence whether its batcher runs one step per Begin or
// many.
type Selector interface {
	SelectModel(queued, outstandingTokens int, kvUsage, headSlack float64) int
}

// RangeSelector is a Selector whose answer depends on the outstanding-token
// load alone and holds over a range of it. SelectRange returns the model
// SelectModel returns at outstandingTokens, whatever its other arguments,
// and the loads [lo, hi], outstandingTokens among them, at which it returns
// that same model. A batcher keeps the answer and consults again only at a
// boundary whose load has left [lo, hi]; every decision comes out as if it
// had consulted at every boundary.
type RangeSelector interface {
	Selector
	SelectRange(outstandingTokens int) (model, lo, hi int)
}

// Seq is one request's progress through a Batcher. Tag is the caller's
// per-request payload (the serve worker's token stream; the simulator
// carries none). AdmitAt and FirstTokenAt are valid once the sequence was
// admitted and emitted its first token.
type Seq[T any] struct {
	Request
	Tag          T
	AdmitAt      float64
	FirstTokenAt float64
	// Gap is the time from the sequence's previous token to its latest —
	// from its arrival for the first token, so that Gap is then the TTFT,
	// and a TBT observation afterwards.
	Gap float64

	// lastTokenAt, decodeLeft and kvHeld lag a decode run Begin is landing
	// by the run's steps until Begin settles the run, before it returns.
	lastTokenAt float64 // the arrival, until the first token
	prefillLeft int
	decodeLeft  int
	kvHeld      int // tokens currently resident in the KV cache
	// per-step schedule: set by Begin, read by Land
	prefillChunk    int
	decodeScheduled bool
}

// First reports whether the sequence's latest token was its first.
func (s *Seq[T]) First() bool { return s.decodeLeft == s.Decode-1 }

// Done reports whether the sequence's latest token was its last.
func (s *Seq[T]) Done() bool { return s.decodeLeft == 0 }

// Counts are a batcher's run totals: one selection decision per step.
// Consults counts the selector's answers: one per step boundary, except
// that a RangeSelector is asked only where the load has left the range of
// its last answer.
type Counts struct {
	Steps         int
	Switches      int
	Consults      int
	PrefillTokens int64
	DecodeTokens  int64
	// PeakKV is the maximum KV occupancy fraction reached.
	PeakKV float64
}

// Batcher is one worker's continuous-batching step scheduler: a waiting
// queue, a running batch, and KV-cache accounting against the serving
// model's capacity. At every step boundary it applies the selector's answer
// (an immediate model switch when the running batch is empty,
// drain-then-switch otherwise) — asking again unless a RangeSelector's last
// answer still holds — admits waiting requests FIFO under full-footprint KV
// reservations, composes the step decode-first with chunked prefill, and —
// once the caller has let the step's modeled time pass — lands its tokens.
// A step in which every running sequence decodes, none finishes and nothing
// outside can happen first changes only counters, so Begin lands such steps
// itself, a decode run, and hands its caller the first step that is not one.
//
// It works purely in modeled seconds handed in by its caller and never
// reads a clock: the simulator drives it from its event loop, the serve
// worker from wall time × TimeScale. Both therefore execute the same
// scheduling decisions. A Batcher is not safe for concurrent use.
type Batcher[T any] struct {
	models Set
	slo    float64
	sel    Selector
	ranged RangeSelector // sel, when it reports ranges
	tel    *series       // nil without a registry

	// want is the selector's last answer and [lo, hi] the loads over which
	// it holds; lo > hi unless sel is ranged and has answered.
	want, lo, hi int

	model      int // index into models
	draining   bool
	waiting    []*Seq[T]
	running    []*Seq[T]
	kvUsed     int // tokens resident
	kvReserved int // tokens reserved by admitted sequences
	outTok     int // outstanding tokens over waiting + running
	counts     Counts

	// slab hands out sequences in chunks, so a long stream costs one
	// allocation per seqSlab requests rather than one each.
	slab []Seq[T]
	// per-boundary result scratch, reused across steps
	rejected []*Seq[T]
	landed   []*Seq[T]
	run      decodeRun // the decode steps the last Begin landed itself
}

// decodeRun is the decode steps one Begin landed itself: n sequences — the
// head of the running batch — each decoding one token per step, for steps
// steps from start, the first priced at kv tokens resident and the last
// ending at end. Its counters land as it runs; its sequences' own fields
// are settled once, before Begin returns; ObserveGaps replays its step ends.
type decodeRun struct {
	start, end   float64
	steps, n, kv int
}

const seqSlab = 64

// NewBatcher builds a worker's scheduler over models (already carrying any
// KV-capacity override), starting on the most accurate one. sel may be nil
// (never switch). With a registry the batcher exports the ramsis_llm_* and
// query series, the KV-usage gauge under the worker's index; reg may be nil.
func NewBatcher[T any](models Set, slo float64, sel Selector, reg *telemetry.Registry, worker int) *Batcher[T] {
	b := &Batcher[T]{models: models, slo: slo, sel: sel, model: models.MostAccurate(), lo: 1}
	b.ranged, _ = sel.(RangeSelector)
	if reg != nil {
		b.tel = newSeries(reg, worker)
	}
	return b
}

// Push clamps the request's token lengths to at least one each and appends
// it to the waiting queue.
func (b *Batcher[T]) Push(r Request, tag T) {
	r.Prefill = max(r.Prefill, 1)
	r.Decode = max(r.Decode, 1)
	if len(b.slab) == 0 {
		b.slab = make([]Seq[T], seqSlab)
	}
	s := &b.slab[0]
	b.slab = b.slab[1:]
	s.Request, s.Tag, s.lastTokenAt = r, tag, r.Arrival
	s.prefillLeft, s.decodeLeft = r.Prefill, r.Decode
	b.waiting = append(b.waiting, s)
	b.outTok += r.Tokens()
}

// Idle reports whether nothing is waiting or running.
func (b *Batcher[T]) Idle() bool { return len(b.waiting) == 0 && len(b.running) == 0 }

// Outstanding returns the unfinished token load over waiting and running
// requests — the join-shortest-token-queue routing signal.
func (b *Batcher[T]) Outstanding() int { return b.outTok }

// Running returns the running batch's sequence count.
func (b *Batcher[T]) Running() int { return len(b.running) }

// Model returns the serving model.
func (b *Batcher[T]) Model() *StepModel { return &b.models.Models[b.model] }

// Counts returns the run totals so far.
func (b *Batcher[T]) Counts() Counts { return b.counts }

// DecodeRun reports how many decode steps the last Begin landed itself and
// when the last of them ended (its now, when it landed none): the time a
// caller's horizon must lie beyond.
func (b *Batcher[T]) DecodeRun() (steps int, end float64) { return b.run.steps, b.run.end }

// Finish accounts for a sequence Land reported Done at time end: it returns
// the request's end-to-end latency and whether that violates the SLO — the
// one SLO test both clocks apply — and records the outcome in the registry
// (traceID, when non-empty, becomes the latency histogram's exemplar).
func (b *Batcher[T]) Finish(s *Seq[T], end float64, traceID string) (latency float64, violated bool) {
	latency = end - s.Arrival
	violated = latency > b.slo+1e-12
	if b.tel != nil {
		b.tel.served(b.Model(), latency, s.AdmitAt-s.Arrival, violated, traceID)
	}
	return latency, violated
}

// Drain empties the batcher and returns every waiting and running sequence
// (a stopping worker fails them).
func (b *Batcher[T]) Drain() []*Seq[T] {
	all := append(b.waiting, b.running...)
	b.waiting, b.running = nil, nil
	b.kvUsed, b.kvReserved, b.outTok = 0, 0, 0
	return all
}

// Begin runs step boundaries from time now: at each it applies the
// selector's answer (see maybeSwitch), drains or switches the serving model,
// admits waiting requests under the KV reservation cap and composes the
// step decode-first.
// While the composed step belongs to a decode run — every running sequence
// decodes, one step after its last token, none finishes, and the step ends
// strictly before horizon — Begin lands it itself, in O(1): the KV and
// outstanding counts move by the running count, and the next boundary
// starts at its end. It returns the first step that does not, as its
// absolute end time (the run's step times summed one at a time) — the
// caller lets that pass, then calls Land — plus the requests rejected
// because their footprint can never fit the serving model's cache (valid
// until the next Begin). ok is false when nothing is runnable: the worker is
// idle until the next Push.
//
// A caller whose clock can run past a step passes its next outside event —
// the simulator its next arrival — as horizon, so every push still finds
// the batcher as one Begin per step would leave it; horizon = now runs one
// step per call.
func (b *Batcher[T]) Begin(now, horizon float64) (end float64, rejected []*Seq[T], ok bool) {
	b.run = decodeRun{start: now, end: now}
	if b.Idle() {
		return 0, nil, false
	}
	b.rejected = b.rejected[:0]
	// left is the fewest decode tokens a running sequence owed at the last
	// composition; lockstep, that every running sequence then decoded one
	// step after its last token.
	left, lockstep := 0, false
	for {
		// Past a run's first step, while the selector's last answer holds, a
		// boundary can decide nothing new: the model, draining, the running
		// batch, its reservations and the waiting queue are as the previous
		// boundary left them, so it neither switches nor admits.
		admitted := false
		if b.run.steps == 0 || !b.held() {
			if b.sel != nil {
				b.maybeSwitch(now)
			}
			admitted = b.admit(now, b.Model())
		}
		m := b.Model()
		if len(b.running) == 0 {
			return 0, b.rejected, false
		}
		p, d := 0, len(b.running)
		composed := b.run.steps == 0 || admitted
		if composed {
			b.settle()
			p, d, left, lockstep = b.compose(m, now)
		}
		tau := m.StepTime(p, d, float64(b.kvUsed)/float64(m.KVCapTokens))
		end = now + tau
		b.counts.Steps++
		b.counts.PrefillTokens += int64(p)
		b.counts.DecodeTokens += int64(d)
		if t := b.tel; t != nil {
			t.step.Observe(tau)
			t.steps.With(m.Name).Inc()
			t.prefillTokens.Add(float64(p))
			t.decodeTokens.Add(float64(d))
		}
		if !lockstep || left-b.run.steps <= 1 || !(end < horizon) {
			if !composed {
				b.settle()
			}
			return end, b.rejected, true
		}
		// Land the decode step here: no sequence finishes, so only the
		// counters move.
		if b.run.steps == 0 {
			b.run.n, b.run.kv = d, b.kvUsed
		}
		b.run.steps++
		b.run.end = end
		b.kvUsed += d
		b.outTok -= d
		now = end
	}
}

// admit moves waiting requests into the running batch FIFO while their KV
// reservations fit (none while draining), rejecting a head that can never
// fit the serving model's empty cache; it reports whether it admitted any.
func (b *Batcher[T]) admit(now float64, m *StepModel) bool {
	if b.draining {
		return false
	}
	admitted := false
	for len(b.waiting) > 0 && len(b.running) < m.MaxSeqs {
		s := b.waiting[0]
		need := s.Tokens()
		if b.kvReserved+need > m.KVCapTokens {
			if len(b.running) == 0 && b.kvReserved == 0 {
				// Can never fit this model's cache even empty: reject
				// rather than deadlock the queue head.
				b.waiting = b.waiting[1:]
				b.outTok -= need
				b.rejected = append(b.rejected, s)
				continue
			}
			break // FIFO admission: no head-of-line bypass
		}
		b.kvReserved += need
		s.AdmitAt = now
		b.running = append(b.running, s)
		b.waiting = b.waiting[1:]
		admitted = true
	}
	return admitted
}

// compose schedules the step at now: one decode token per eligible sequence
// first, then prefill chunks fill the remaining budget. It returns the
// step's prefill and decode tokens, the fewest decode tokens a decoding
// sequence owes, and whether every running sequence decodes one step after
// its last token.
func (b *Batcher[T]) compose(m *StepModel, now float64) (p, d, left int, lockstep bool) {
	budget := m.StepBudget()
	left, lockstep = math.MaxInt, true
	for _, s := range b.running {
		s.decodeScheduled = false
		s.prefillChunk = 0
		if s.prefillLeft == 0 && s.decodeLeft > 0 && d < budget {
			s.decodeScheduled = true
			d++
			left = min(left, s.decodeLeft)
			lockstep = lockstep && s.lastTokenAt == now
		} else {
			lockstep = false
		}
	}
	for _, s := range b.running {
		if s.prefillLeft > 0 && p+d < budget {
			chunk := min(s.prefillLeft, budget-p-d)
			s.prefillChunk = chunk
			p += chunk
		}
	}
	return p, d, left, lockstep
}

// settle applies the decode run landed so far to its sequences — each
// decoded one token per step, the last at the run's end — and to PeakKV:
// the KV only grows during a run, so its last step's occupancy is the run's
// peak.
func (b *Batcher[T]) settle() {
	k := b.run.steps
	if k == 0 {
		return
	}
	b.counts.PeakKV = max(b.counts.PeakKV, float64(b.kvUsed)/float64(b.Model().KVCapTokens))
	for _, s := range b.running[:b.run.n] {
		s.decodeLeft -= k
		s.kvHeld += k
		s.lastTokenAt = b.run.end
	}
}

// maybeSwitch applies the selector's decision — its last answer while the
// load stays in that answer's range, else a new consult: an immediate
// switch when the running batch is empty, otherwise drain mode (no
// admissions until the batch empties, then switch).
func (b *Batcher[T]) maybeSwitch(now float64) {
	desired := b.want
	if !b.held() {
		desired = b.consult(now)
	}
	if desired < 0 || desired >= b.models.Len() || desired == b.model {
		b.draining = false
		return
	}
	if len(b.running) == 0 {
		b.model = desired
		b.draining = false
		b.counts.Switches++
		if b.tel != nil {
			b.tel.switches.Inc()
		}
		return
	}
	b.draining = true
}

// held reports whether the selector's last answer holds at the current
// load; never for a selector that is not a RangeSelector.
func (b *Batcher[T]) held() bool { return b.lo <= b.outTok && b.outTok <= b.hi }

// consult asks the selector for the next step's model; a RangeSelector's
// answer is kept with its range.
func (b *Batcher[T]) consult(now float64) int {
	b.counts.Consults++
	if b.ranged != nil {
		b.want, b.lo, b.hi = b.ranged.SelectRange(b.outTok)
		return b.want
	}
	kv := float64(b.kvUsed) / float64(b.Model().KVCapTokens)
	queued := len(b.waiting) + len(b.running)
	return b.sel.SelectModel(queued, b.outTok, kv, b.headArrival()+b.slo-now)
}

// headArrival returns the oldest arrival time across waiting and running;
// the batcher must not be idle.
func (b *Batcher[T]) headArrival() float64 {
	if len(b.running) == 0 {
		return b.waiting[0].Arrival
	}
	t := b.running[0].Arrival
	if len(b.waiting) > 0 && b.waiting[0].Arrival < t {
		t = b.waiting[0].Arrival
	}
	return t
}

// Land lands the step Begin returned — not the decode run Begin landed
// before it — at time end: prefill chunks enter the KV cache (a finishing
// prefill emits the first token), decode tokens advance their sequences,
// and finished sequences release their reservations. It returns the
// sequences that generated a token — each exactly one; see Seq.Gap, First
// and Done — in batch order (valid until the next Land). With a registry it
// records the run's and the step's tokens through ObserveGaps.
func (b *Batcher[T]) Land(end float64) []*Seq[T] {
	cap := float64(b.Model().KVCapTokens)
	b.landed = b.landed[:0]
	keep := b.running[:0]
	for _, s := range b.running {
		switch {
		case s.prefillChunk > 0:
			b.kvUsed += s.prefillChunk
			s.kvHeld += s.prefillChunk
			s.prefillLeft -= s.prefillChunk
			b.outTok -= s.prefillChunk
			if s.prefillLeft > 0 {
				keep = append(keep, s)
				continue
			}
			// Prefill finished: the step's last forward pass emitted the
			// first output token.
			s.FirstTokenAt = end
		case s.decodeScheduled: // one decode token
		default: // the step's budget ran out before this sequence
			keep = append(keep, s)
			continue
		}
		s.decodeLeft--
		s.kvHeld++
		b.kvUsed++
		b.outTok--
		s.Gap = end - s.lastTokenAt
		s.lastTokenAt = end
		if s.Done() {
			b.counts.PeakKV = max(b.counts.PeakKV, float64(b.kvUsed)/cap)
			b.kvUsed -= s.kvHeld
			b.kvReserved -= s.Tokens()
		} else {
			keep = append(keep, s)
		}
		b.landed = append(b.landed, s)
	}
	b.running = keep
	kv := float64(b.kvUsed) / cap
	b.counts.PeakKV = max(b.counts.PeakKV, kv)
	if t := b.tel; t != nil {
		t.kv.Set(kv)
		b.ObserveGaps(t.ttft, t.tbt, nil, nil)
	}
	return b.landed
}

// ObserveGaps records the tokens the last Land landed, in step order: first
// the decode run Begin landed before that step — R tokens a step, each
// step's gap its end − the previous end, replayed to the bit from the run's
// start, step count, starting KV and R, so a run keeps no storage — then
// the step's own tokens (Land's result, in batch order). A sequence's first
// token is a TTFT observation, every later token a TBT observation; when
// ttfts / tbts are non-nil each observation is appended there too. Every
// sequence that also decoded in the previous step has the same gap, so a
// run of consecutive equal TBT gaps is staged as one Tally.ObserveN, and
// the run's and the step's TBT observations reach tbt in one Commit. Both
// histograms end exactly as one Observe per token would leave them, sums
// included. This is the one place gaps become observations.
func (b *Batcher[T]) ObserveGaps(ttft, tbt *telemetry.Histogram, ttfts, tbts *[]float64) {
	t := tbt.Tally()
	r, m := &b.run, b.Model()
	prev, kv := r.start, r.kv
	for i := 0; i < r.steps; i++ {
		end := prev + m.StepTime(0, r.n, float64(kv)/float64(m.KVCapTokens))
		observeTBT(&t, tbts, end-prev, r.n)
		prev, kv = end, kv+r.n
	}
	gap, n := 0.0, 0
	for _, s := range b.landed {
		switch {
		case s.First():
			ttft.Observe(s.Gap)
			if ttfts != nil {
				*ttfts = append(*ttfts, s.Gap)
			}
		case n > 0 && s.Gap == gap:
			n++
		default:
			observeTBT(&t, tbts, gap, n)
			gap, n = s.Gap, 1
		}
	}
	observeTBT(&t, tbts, gap, n)
	t.Commit()
}

// observeTBT stages n TBT observations of gap.
func observeTBT(tbt *telemetry.Tally, tbts *[]float64, gap float64, n int) {
	tbt.ObserveN(gap, n)
	if tbts != nil {
		for ; n > 0; n-- {
			*tbts = append(*tbts, gap)
		}
	}
}
