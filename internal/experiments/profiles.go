package experiments

import (
	"fmt"

	"repro/internal/classifier"
	"repro/internal/kmeans"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/vprof"
)

// Fig03 reproduces Figure 3: the nine profiled applications placed in the
// DRAMUtil × PeakFUUtil space and grouped into three classes by K-Means.
func Fig03(Scale) (*Table, error) {
	apps := classifier.BuiltinApps()
	cl, err := classifier.Classify(apps, 3)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:   "fig03",
		Title:  "Application classification (K-Means over PeakFUUtil x DRAMUtil, K=3)",
		Header: []string{"app", "PeakFUUtil", "DRAMUtil", "class"},
	}
	for _, a := range apps {
		fu, dram := a.Point()
		class, _ := cl.ClassOf(a.Name)
		t.AddRow(a.Name, fmt.Sprintf("%.2f", fu), fmt.Sprintf("%.2f", dram),
			"Class "+class.String())
	}
	for c, ctr := range cl.Centers {
		t.Note("class %s centroid: PeakFU=%.2f DRAM=%.2f", vprof.Class(c), ctr[0], ctr[1])
	}
	t.Note("paper (Table II): Class A = {sgemm, dcgan, vgg19, resnet variants}, Class B = {bert, lammps}, Class C = {pagerank, pointnet}")
	return t, nil
}

// Fig05 reproduces Figure 5: K-Means binning of a 128-GPU Class-A
// variability profile, with each bin's centroid and population, including
// >3-sigma outliers handled as their own exact-score bins.
func Fig05(Scale) (*Table, error) {
	p := LonghornProfile(128)
	scores := p.ClassScores(vprof.ClassA)
	sel := kmeans.SelectK(scores)
	b := kmeans.Bin(scores)
	t := &Table{
		Name:   "fig05",
		Title:  "PM-score binning of a 128-GPU Class-A profile",
		Header: []string{"bin", "centroid score", "GPUs"},
	}
	counts := make([]int, b.NumBins())
	for _, bin := range b.BinOf {
		counts[bin]++
	}
	for i, s := range b.Scores {
		t.AddRow(fmt.Sprintf("%d", i), fmt.Sprintf("%.3f", s), fmt.Sprintf("%d", counts[i]))
	}
	t.Note("silhouette-selected K=%d (score %.3f) over inliers; %d GPUs are >3-sigma outliers with exact-score bins",
		sel.K, sel.Score, len(sel.OutlierIdx))
	t.Note("paper: most GPUs fall in the first 2 clusters near the median; outliers are >2.5x slower")
	return t, nil
}

// Fig06to08 reproduces Figures 6-8: the per-application variability
// profiles of Frontera, Longhorn and the 64-GPU testbed subset, reported
// as the geomean variability, quartiles and maximum of the
// normalized-to-median scores.
func Fig06to08(Scale) (*Table, error) {
	t := &Table{
		Name:   "fig06_08",
		Title:  "Synthetic cluster variability profiles (normalized to median GPU)",
		Header: []string{"cluster", "class (model)", "geomean var", "p25", "p75", "max"},
	}
	classModel := map[vprof.Class]string{
		vprof.ClassA: "ResNet50",
		vprof.ClassB: "BERT",
		vprof.ClassC: "PageRank",
	}
	profiles := []*vprof.Profile{
		vprof.GenerateFrontera(360, scenario.ProfileSeed+1), // Fig. 6: 360 Quadro RTX 5000 GPUs
		vprof.GenerateLonghorn(416, scenario.ProfileSeed),   // Fig. 7
		TestbedProfile(), // Fig. 8: 64-GPU testbed subset
	}
	for _, p := range profiles {
		for c := vprof.Class(0); int(c) < p.NumClasses(); c++ {
			scores := p.ClassScores(c)
			t.AddRow(p.Name(),
				fmt.Sprintf("%s (%s)", c, classModel[c]),
				Pct(p.Variability(c)),
				fmt.Sprintf("%.3f", stats.Percentile(scores, 25)),
				fmt.Sprintf("%.3f", stats.Percentile(scores, 75)),
				fmt.Sprintf("%.2f", p.MaxScore(c)))
		}
	}
	t.Note("paper: ResNet50 ~13-22%% variability with tails to 2.5-3.5x; PageRank ~1%%; testbed Class A ~6%% vs 13.3%% full Frontera")
	return t, nil
}
