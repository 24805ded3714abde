package experiments

import "ramsis/internal/profile"

// ProfileRow is one model in a Fig. 3 / Fig. 9 profile plot.
type ProfileRow struct {
	Name      string
	Accuracy  float64
	LatencyMS float64 // batch-1 p95
	Pareto    bool
}

// Fig3 prints the image classification model profile (26 TorchVision
// models, 9 on the Pareto front).
func (h *Harness) Fig3() []ProfileRow {
	return h.profileFigure("fig3", "Fig. 3: image classification model profile (p95 latency vs accuracy)", profile.ImageSet())
}

// Fig9 prints the text classification model profile (5 BERT models).
func (h *Harness) Fig9() []ProfileRow {
	return h.profileFigure("fig9", "Fig. 9: text classification model profile (p95 latency vs accuracy)", profile.TextSet())
}

func (h *Harness) profileFigure(name, title string, s profile.Set) []ProfileRow {
	onFront := map[string]bool{}
	for _, p := range s.ParetoFront().Profiles {
		onFront[p.Name] = true
	}
	rows := make([]ProfileRow, 0, s.Len())
	h.printf("%s\n", title)
	h.printf("%-22s %9s %12s %7s\n", "model", "acc(%)", "latency(ms)", "pareto")
	for _, p := range s.SortedByLatency().Profiles {
		r := ProfileRow{
			Name:      p.Name,
			Accuracy:  p.Accuracy,
			LatencyMS: p.BatchLatency(1) * 1000,
			Pareto:    onFront[p.Name],
		}
		rows = append(rows, r)
		mark := ""
		if r.Pareto {
			mark = "*"
		}
		h.printf("%-22s %9.2f %12.1f %7s\n", r.Name, r.Accuracy*100, r.LatencyMS, mark)
	}
	h.printf("pareto front: %d of %d models\n\n", len(onFront), s.Len())
	h.saveResult(name, rows)
	return rows
}
