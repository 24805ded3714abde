package llm

import (
	"math"
	"testing"
)

// token snapshots one generated token as Land reported it.
type token struct {
	Seq   *Seq[int]
	Gap   float64
	First bool
	Done  bool
}

// runToIdle drives a batcher one step per Begin (horizon = now) — begin a
// step at now, land it at the end Begin returns — until nothing is
// runnable. It returns the end time plus every token and rejection in order.
func runToIdle(b *Batcher[int], now float64) (end float64, tokens []token, rejected []int) {
	for {
		end, rej, ok := b.Begin(now, now)
		for _, s := range rej {
			rejected = append(rejected, s.ID)
		}
		if !ok {
			return now, tokens, rejected
		}
		now = end
		for _, s := range b.Land(now) {
			tokens = append(tokens, token{s, s.Gap, s.First(), s.Done()})
		}
	}
}

// TestBatcherStepWalk walks one request through the scheduler by hand: the
// prefill step emits the first token, each later step one decode token, and
// every step is priced at the KV occupancy it started with.
func TestBatcherStepWalk(t *testing.T) {
	models := BuiltinSet()
	m := models.Models[models.MostAccurate()]
	b := NewBatcher[int](models, 60, nil, nil, 0)
	b.Push(Request{ID: 7, Arrival: 0, Prefill: 1000, Decode: 3}, 42)
	if b.Outstanding() != 1003 || b.Idle() {
		t.Fatalf("after push: outstanding %d, idle %v", b.Outstanding(), b.Idle())
	}

	end, tokens, rejected := runToIdle(b, 0)
	tau1 := m.StepTime(1000, 0, 0)
	tau2 := m.StepTime(0, 1, 1001.0/float64(m.KVCapTokens))
	tau3 := m.StepTime(0, 1, 1002.0/float64(m.KVCapTokens))
	if math.Abs(end-(tau1+tau2+tau3)) > 1e-12 {
		t.Errorf("finished at %v, want %v", end, tau1+tau2+tau3)
	}
	if len(rejected) != 0 || len(tokens) != 3 {
		t.Fatalf("%d tokens, %d rejections; want 3, 0", len(tokens), len(rejected))
	}
	if !tokens[0].First || tokens[0].Done || tokens[0].Seq.Tag != 42 {
		t.Errorf("first token %+v", tokens[0])
	}
	if tokens[1].First || math.Abs(tokens[1].Gap-tau2) > 1e-12 {
		t.Errorf("second token %+v, want gap %v", tokens[1], tau2)
	}
	if !tokens[2].Done || math.Abs(tokens[2].Gap-tau3) > 1e-12 {
		t.Errorf("last token %+v, want done with gap %v", tokens[2], tau3)
	}
	s := tokens[2].Seq
	if s.AdmitAt != 0 || math.Abs(s.FirstTokenAt-tau1) > 1e-12 {
		t.Errorf("admitted at %v, first token at %v", s.AdmitAt, s.FirstTokenAt)
	}
	c := b.Counts()
	if c.Steps != 3 || c.PrefillTokens != 1000 || c.DecodeTokens != 2 || c.Switches != 0 {
		t.Errorf("counts %+v", c)
	}
	if want := 1003.0 / float64(m.KVCapTokens); math.Abs(c.PeakKV-want) > 1e-12 {
		t.Errorf("peak KV %v, want %v", c.PeakKV, want)
	}
	if !b.Idle() || b.Outstanding() != 0 || b.Running() != 0 {
		t.Errorf("not drained: outstanding %d, running %d", b.Outstanding(), b.Running())
	}
}

// TestBatcherFIFOAdmissionAndRejection pins the KV gate: a request that
// does not fit next to the running batch waits (and holds back the ones
// behind it — no head-of-line bypass), and one that can never fit is
// rejected rather than deadlocking the head.
func TestBatcherFIFOAdmissionAndRejection(t *testing.T) {
	b := NewBatcher[int](BuiltinSet().WithKVCap(2000), 60, nil, nil, 0)
	b.Push(Request{ID: 1, Prefill: 1400, Decode: 100}, 0) // 1500: admitted
	b.Push(Request{ID: 2, Prefill: 900, Decode: 100}, 0)  // 1000: must wait for 1
	b.Push(Request{ID: 3, Prefill: 10, Decode: 5}, 0)     // would fit, but behind 2
	b.Push(Request{ID: 4, Prefill: 3000, Decode: 100}, 0) // 3100 > cap: rejected

	_, tokens, rejected := runToIdle(b, 0)
	if len(rejected) != 1 || rejected[0] != 4 {
		t.Errorf("rejected %v, want [4]", rejected)
	}
	admit := map[int]float64{}
	done := map[int]float64{}
	for _, l := range tokens {
		admit[l.Seq.ID] = l.Seq.AdmitAt
		if l.Done {
			done[l.Seq.ID] = l.Seq.lastTokenAt
		}
	}
	if len(done) != 3 {
		t.Fatalf("finished %v, want requests 1-3", done)
	}
	if admit[1] != 0 || admit[2] != done[1] || admit[3] != done[1] {
		t.Errorf("requests 2 and 3 admitted at %v and %v, want at request 1's completion %v",
			admit[2], admit[3], done[1])
	}
}

// scriptSelector asks for model 0 on its first consult and model 2 after.
type scriptSelector struct{ calls int }

func (s *scriptSelector) SelectModel(int, int, float64, float64) int {
	s.calls++
	if s.calls == 1 {
		return 0
	}
	return 2
}

// TestBatcherDrainThenSwitch pins switch semantics: with an empty running
// batch the switch is immediate; with sequences in flight the batcher
// admits nothing until the batch drains, then switches.
func TestBatcherDrainThenSwitch(t *testing.T) {
	models := BuiltinSet()
	b := NewBatcher[int](models, 60, &scriptSelector{}, nil, 0)
	b.Push(Request{ID: 1, Prefill: 10, Decode: 30}, 0)
	tau, _, ok := b.Begin(0, 0)
	if !ok || b.Model().Name != models.Models[0].Name || b.Counts().Switches != 1 {
		t.Fatalf("first boundary: on %s after %d switches; want an immediate switch to %s",
			b.Model().Name, b.Counts().Switches, models.Models[0].Name)
	}
	b.Land(tau)
	b.Push(Request{ID: 2, Arrival: tau, Prefill: 10, Decode: 5}, 0)

	_, tokens, _ := runToIdle(b, tau)
	var done1, admit2 float64
	for _, l := range tokens {
		if l.Done && l.Seq.ID == 1 {
			done1 = l.Seq.lastTokenAt
		}
		if l.Seq.ID == 2 {
			admit2 = l.Seq.AdmitAt
		}
	}
	if admit2 != done1 {
		t.Errorf("request 2 admitted at %v, want held until request 1 drained at %v", admit2, done1)
	}
	if b.Counts().Switches != 2 || b.Model().Name != models.Models[2].Name {
		t.Errorf("switches %d on %s, want 2 ending on %s", b.Counts().Switches, b.Model().Name, models.Models[2].Name)
	}
}

// TestBatcherDrainFailsEverything pins the stop path: Drain hands back
// every waiting and running sequence and leaves the batcher empty.
func TestBatcherDrainFailsEverything(t *testing.T) {
	b := NewBatcher[int](BuiltinSet().WithKVCap(1000), 60, nil, nil, 0)
	b.Push(Request{ID: 1, Prefill: 800, Decode: 10}, 0)
	b.Push(Request{ID: 2, Prefill: 800, Decode: 10}, 0)
	if _, _, ok := b.Begin(0, 0); !ok {
		t.Fatal("nothing runnable")
	}
	if all := b.Drain(); len(all) != 2 {
		t.Fatalf("drained %d sequences, want 2", len(all))
	}
	if !b.Idle() || b.Outstanding() != 0 {
		t.Errorf("after drain: idle %v, outstanding %d", b.Idle(), b.Outstanding())
	}
}
