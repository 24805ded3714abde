package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"ramsis/internal/llm"
)

func TestPoissonArrivalsDeterministicAndShaped(t *testing.T) {
	qps := []float64{200, 0, 800}
	gen := func(seed int64) []float64 {
		return poissonArrivals(rand.New(rand.NewSource(seed)), qps, 10)
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrivals")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same arrivals")
	}
	if !sort.Float64sAreSorted(a) {
		t.Fatal("arrivals not ascending")
	}
	var perInterval [3]int
	for _, at := range a {
		perInterval[int(at/10)]++
	}
	if perInterval[1] != 0 {
		t.Errorf("%d arrivals in the zero-rate interval", perInterval[1])
	}
	// 2000 and 8000 expected; 5 sigma is ~220 and ~450.
	if math.Abs(float64(perInterval[0])-2000) > 220 || math.Abs(float64(perInterval[2])-8000) > 450 {
		t.Errorf("arrivals per interval %v, want about [2000 0 8000]", perInterval)
	}
}

func TestTokenQueriesDeterministicAndInRange(t *testing.T) {
	cls := llm.GeneralClass()
	gen := func(seed int64) interface{} {
		rng := rand.New(rand.NewSource(seed))
		return tokenQueries(rng, poissonArrivals(rng, []float64{50}, 20), cls.In, cls.Out)
	}
	if !reflect.DeepEqual(gen(3), gen(3)) {
		t.Fatal("same seed gave different token queries")
	}
	if reflect.DeepEqual(gen(3), gen(4)) {
		t.Fatal("different seeds gave the same token queries")
	}
	rng := rand.New(rand.NewSource(3))
	qs := tokenQueries(rng, poissonArrivals(rng, []float64{200}, 50), cls.In, cls.Out)
	var prefill float64
	for i, q := range qs {
		if q.ID != i || q.Prefill < 1 || q.Prefill > cls.In.MaxLen() || q.Decode < 1 || q.Decode > cls.Out.MaxLen() {
			t.Fatalf("query %d out of range: %+v", i, q)
		}
		prefill += float64(q.Prefill)
	}
	if mean, want := prefill/float64(len(qs)), cls.In.MeanLen(); math.Abs(mean-want) > 0.1*want {
		t.Errorf("mean prefill %.1f, distribution mean %.1f", mean, want)
	}
}

func TestWeightedSequence(t *testing.T) {
	gen := func(seed int64) []int {
		return weightedSequence(rand.New(rand.NewSource(seed)), 30000, []float64{2, 1})
	}
	a := gen(1)
	if !reflect.DeepEqual(a, gen(1)) {
		t.Fatal("same seed gave different sequences")
	}
	if reflect.DeepEqual(a, gen(2)) {
		t.Fatal("different seeds gave the same sequence")
	}
	zeros := 0
	for _, k := range a {
		if k == 0 {
			zeros++
		} else if k != 1 {
			t.Fatalf("index %d out of range", k)
		}
	}
	if share := float64(zeros) / float64(len(a)); math.Abs(share-2.0/3) > 0.02 {
		t.Errorf("index 0 drawn %.3f of the time, want 0.667", share)
	}
}

func TestMedianQuartilesPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v, %v; Python gives 1.5, 12", q1, q3)
	}
	// statistics.quantiles([3, 5], n=4) == [2.5, 5.5]
	if q1, q3 := quartiles([]float64{3, 5}); q1 != 2.5 || q3 != 5.5 {
		t.Errorf("quartiles(3,5) = %v, %v; Python gives 2.5, 5.5", q1, q3)
	}
	if got := spread(ten); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5", got)
	}
	if got := percentile(ten, 50); got != 5.5 {
		t.Errorf("p50 = %v", got)
	}
	if got := percentile(ten, 100); got != 10 {
		t.Errorf("p100 = %v", got)
	}
	if got := percentile(ten, 90); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
}

func TestFloorSum(t *testing.T) {
	reps := [][]float64{{3, 10, 5}, {4, 8, 6}, {2, 9, 7}}
	if got, ok := floorSum(reps); !ok || got != 2+8+5 {
		t.Errorf("floorSum = %v, %v; want 15, true", got, ok)
	}
	if _, ok := floorSum([][]float64{{1, 2}, {1}}); ok {
		t.Error("ragged repetitions accepted")
	}
	if _, ok := floorSum(nil); ok {
		t.Error("no repetitions accepted")
	}
}

func TestLaps(t *testing.T) {
	var none *laps
	none.lap() // a nil *laps times nothing
	l := startLaps()
	time.Sleep(2 * time.Millisecond)
	l.lap()
	l.lap()
	if len(l.wall) != 2 || len(l.cpu) != 2 || l.wall[0] < 0.002 || l.wall[1] > l.wall[0] {
		t.Errorf("laps wall %v cpu %v", l.wall, l.cpu)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "run", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "inner", Start: 15, End: 25},
		{ID: 3, Parent: 0, Name: "run", Start: 50, End: 90},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"pass": 30, "run": 60, "inner": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestRecorderNestsAndSerializes(t *testing.T) {
	var none *recorder
	none.end(none.begin("ignored")) // a nil recorder records nothing

	rec := newRecorder("w")
	outer := rec.begin("outer")
	rec.setPass(2)
	rec.timed("inner", func() {})
	dangling := rec.begin("dangling")
	rec.end(outer) // closes dangling too
	if len(rec.open) != 0 {
		t.Fatalf("open stack %v after closing the root", rec.open)
	}
	if rec.spans[1].Parent != outer || rec.spans[dangling].Parent != outer || rec.spans[outer].Parent != -1 {
		t.Errorf("parents wrong: %+v", rec.spans)
	}
	if rec.spans[1].Pass != 2 || rec.spans[dangling].End == 0 {
		t.Errorf("pass label or dangling end missing: %+v", rec.spans)
	}
	var buf bytes.Buffer
	if err := rec.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d JSONL lines, want 3", len(lines))
	}
	var back span
	if err := json.Unmarshal([]byte(lines[1]), &back); err != nil || back != rec.spans[1] {
		t.Errorf("line 1 round-trips to %+v (%v), want %+v", back, err, rec.spans[1])
	}
}

func TestCompareSets(t *testing.T) {
	lower := AARow{Metric: "wall_us_per_query", Better: "lower", Bound: 0.1}
	a := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	if row := compareSets(lower, a, a); !row.OK || !row.Identical || !row.Steady || row.Worse != 0 {
		t.Errorf("identical sets: %+v", row)
	}
	slower := []float64{1.2, 1.21, 1.19, 1.22, 1.18}
	if row := compareSets(lower, a, slower); row.OK || row.Worse < 0.19 {
		t.Errorf("20 %% slower set passed: %+v", row)
	}
	if row := compareSets(lower, slower, a); !row.OK || row.Worse > 0 {
		t.Errorf("faster set failed: %+v", row)
	}
	higher := AARow{Metric: "accuracy", Better: "higher", Bound: 0.01}
	if row := compareSets(higher, []float64{0.70, 0.70, 0.70}, []float64{0.68, 0.68, 0.68}); row.OK || row.Worse < 0.02 {
		t.Errorf("accuracy drop passed: %+v", row)
	}
	noisy := []float64{1, 2, 3, 4, 5}
	if row := compareSets(lower, noisy, noisy); row.OK {
		t.Errorf("spread above the bound passed: %+v", row)
	}
	setup := AARow{Metric: "setup_s", Better: "lower", Bound: 0.1}
	if row := compareSets(setup, noisy, noisy); !row.OK || row.Steady {
		t.Errorf("setup_s is exempt from the spread rule only: %+v", row)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// specNames checks a metric list's names and units against the contract's
// format and returns name -> unit.
func specNames(t *testing.T, ms []MetricSpec, bounded bool) map[string]string {
	t.Helper()
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	out := map[string]string{}
	for _, m := range ms {
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q [%q] breaks the name or unit format", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if _, dup := out[m.Name]; dup {
			t.Errorf("metric %s declared twice", m.Name)
		}
		out[m.Name] = m.Unit
	}
	return out
}

func checkEmitted(t *testing.T, what string, res Result, declared map[string]string) {
	t.Helper()
	for name, m := range res.Metrics {
		if unit, ok := declared[name]; !ok || unit != m.Unit {
			t.Errorf("%s emits %s [%s], BENCHMARK.json declares [%s] (declared: %v)", what, name, m.Unit, unit, ok)
		}
	}
	for name := range declared {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("%s does not emit %s", what, name)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", what, res.Correct, res.Attempted, res.Failed, res.Problems)
	}
}

// TestSmokeMatchesSpec runs every workload once at 1/50 size and checks the
// emitted metrics against BENCHMARK.json, name for name and unit for unit.
func TestSmokeMatchesSpec(t *testing.T) {
	spec, err := LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	endToEnd := specNames(t, spec.EndToEnd, true)
	layers := specNames(t, spec.PerLayer, false)
	if _, ok := endToEnd["setup_s"]; !ok {
		t.Error("BENCHMARK.json has no setup_s")
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the package's declarations")
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(names, Workloads()) {
		t.Fatalf("BENCHMARK.json workloads %v, package has %v", names, Workloads())
	}
	for _, name := range names {
		res, err := Run(Options{Workload: name, Seed: 1, smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkEmitted(t, name, res, endToEnd)
		for metric, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, end-to-end metrics must never be 0", name, metric, m.Value)
			}
		}
	}
	// One traced run covers the probes; drift_resolve also fills the adapt
	// counters.
	res, err := Run(Options{Workload: "drift_resolve", Seed: 1, Trace: true, smoke: true, TraceOut: t.TempDir() + "/spans.jsonl"})
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, "traced drift_resolve", res, layers)
	for _, name := range []string{"adapt.resolves", "adapt.cache_hits", "sim.decisions", "core.states", "serve.round_samples"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("traced drift_resolve: %s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Run(Options{Workload: "nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}
