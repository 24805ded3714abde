package bench

import (
	"math/rand"

	"ramsis/internal/core"
	"ramsis/internal/llm"
	"ramsis/internal/sim"
)

// llmTokens is the second workload kind: token-annotated streams through
// the continuous-batching step loop under token-bucket MDP policies — step
// composition, KV accounting and the token MDP, none of which the scalar
// workloads touch. It runs in virtual time because the live /generate
// stream sits on the time.Sleep floor (slo_attainment 0.66 against 0.639 on
// identical code when PR 12 tried it live).
//
// Each class is served at its own rate under its own policy; the metrics
// pool the classes by query count.
type llmTokens struct {
	smoke   bool
	classes []llmClass
	models  llm.Set
}

type llmClass struct {
	llm.Class
	streams [][]sim.TokenQuery
	pol     *core.LLMPolicy
}

const (
	llmSLO       = 8.0
	llmWorkers   = 2
	llmStreamSec = 1200.0
	// llmStreams per class per pass: 16 x 1200 s x 10.5 QPS is ~200 k
	// queries, enough that pooled attainment moves by well under 1 % between
	// seeds (a single stream moves by 4 %).
	llmStreams = 16
	// llmLapStreams streams make one lap: 0.07-0.16 s depending on the class.
	llmLapStreams = 4
)

var llmRates = map[string]float64{"general": 8, "codegen": 2, "reasoning": 0.5}

func (w *llmTokens) exact() bool { return true }

func (w *llmTokens) prepare(seed int64, smoke bool) {
	w.smoke = smoke
	w.models = llm.BuiltinSet()
	streams, dur := llmStreams, llmStreamSec
	if smoke {
		streams, dur = 1, llmStreamSec*llmStreams/50
	}
	w.classes = nil
	for ci, cls := range llm.Classes() {
		c := llmClass{Class: cls}
		for i := 0; i < streams; i++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(ci)*100 + int64(i)))
			arrivals := poissonArrivals(rng, []float64{llmRates[cls.Name]}, dur)
			c.streams = append(c.streams, tokenQueries(rng, arrivals, cls.In, cls.Out))
		}
		w.classes = append(w.classes, c)
	}
}

// llmConfig is the generation problem for one class at its rate. smoke
// shortens the token axis so the tests' set-ups are fast.
func llmConfig(models llm.Set, cls llm.Class, smoke bool) core.LLMConfig {
	cfg := core.LLMConfig{
		Models:      models,
		SLO:         llmSLO,
		Workers:     llmWorkers,
		Rate:        llmRates[cls.Name],
		In:          cls.In,
		Out:         cls.Out,
		TokenBucket: 128,
		MaxTokens:   65536,
	}
	if smoke {
		cfg.MaxTokens = 8192
	}
	return cfg
}

func (w *llmTokens) setUp(rec *recorder, l *laps) error {
	for i := range w.classes {
		c := &w.classes[i]
		id := rec.begin("core.GenerateLLM")
		pol, err := core.GenerateLLM(llmConfig(w.models, c.Class, w.smoke))
		rec.end(id)
		if err != nil {
			return err
		}
		c.pol = pol
		l.lap()
	}
	return nil
}

func (w *llmTokens) verify() []string { return nil }

func (w *llmTokens) tearDown() {
	for i := range w.classes {
		w.classes[i].pol = nil
	}
}

func (w *llmTokens) serve(rec *recorder, l *laps) pass {
	p := pass{counts: map[string]float64{}}
	for _, c := range w.classes {
		for i, queries := range c.streams {
			sel, err := sim.NewLLMPolicySelector(c.pol, w.models)
			if err != nil {
				p.failf("%s: %v", c.Name, err)
				return p
			}
			e := sim.NewLLMEngine(w.models, llmSLO, llmWorkers, sel)
			id := rec.begin("sim.LLMEngine.Run")
			m := e.Run(queries)
			rec.end(id)
			p.addSim(m.Metrics, len(queries))
			if (i+1)%llmLapStreams == 0 {
				l.lap()
			}
		}
	}
	return p
}
