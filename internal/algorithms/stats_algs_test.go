package algorithms

import (
	"encoding/json"
	"math"
	"testing"

	"mip/internal/stats"
)

func TestTTestOneSampleMatchesPooled(t *testing.T) {
	m, pooled := testFed(t, 3, 120, false)
	req := Request{
		Datasets:   []string{"edsd"},
		Y:          []string{"minimentalstate"},
		Parameters: map[string]any{"mu0": 25.0},
	}
	res := runAlg(t, m, "ttest_onesample", req)
	tt := res["ttest"].(TTestResult)

	ys := pooledColumns(t, pooled, []string{"minimentalstate"}, "")[0]
	mean := stats.Mean(ys)
	se := stats.StdErr(ys)
	wantT := (mean - 25) / se
	near(t, tt.T, wantT, 1e-9, "t")
	near(t, tt.DF, float64(len(ys)-1), 0, "df")
	wantP := 2 * (1 - stats.StudentTCDF(math.Abs(wantT), float64(len(ys)-1)))
	near(t, tt.PValue, wantP, 1e-9, "p")
	if tt.CILow >= tt.CIHigh {
		t.Fatal("CI degenerate")
	}
}

func TestTTestIndependentWelch(t *testing.T) {
	m, pooled := testFed(t, 3, 200, false)
	req := Request{
		Datasets:   []string{"edsd"},
		Y:          []string{"lefthippocampus"},
		X:          []string{"alzheimerbroadcategory"},
		Parameters: map[string]any{"groups": []any{"CN", "AD"}},
	}
	res := runAlg(t, m, "ttest_independent", req)
	tt := res["ttest"].(TTestResult)

	// Pooled Welch reference.
	g1 := pooledColumns(t, pooled, []string{"lefthippocampus"}, "alzheimerbroadcategory = 'CN'")[0]
	g2 := pooledColumns(t, pooled, []string{"lefthippocampus"}, "alzheimerbroadcategory = 'AD'")[0]
	m1, m2 := stats.Mean(g1), stats.Mean(g2)
	v1, v2 := stats.Variance(g1), stats.Variance(g2)
	n1, n2 := float64(len(g1)), float64(len(g2))
	se := math.Sqrt(v1/n1 + v2/n2)
	wantT := (m1 - m2) / se
	near(t, tt.T, wantT, 1e-9, "welch t")
	if tt.T <= 0 || tt.PValue > 1e-6 {
		t.Fatalf("CN vs AD hippocampus should be strongly significant: %+v", tt)
	}
	// Pooled (Student) variant.
	req.Parameters["welch"] = "false"
	res = runAlg(t, m, "ttest_independent", req)
	tt2 := res["ttest"].(TTestResult)
	if tt2.DF != n1+n2-2 {
		t.Fatalf("pooled df = %v", tt2.DF)
	}
}

func TestTTestPaired(t *testing.T) {
	m, pooled := testFed(t, 2, 150, false)
	req := Request{
		Datasets: []string{"edsd"},
		Y:        []string{"lefthippocampus", "righthippocampus"},
	}
	res := runAlg(t, m, "ttest_paired", req)
	tt := res["ttest"].(TTestResult)

	cols := pooledColumns(t, pooled, []string{"lefthippocampus", "righthippocampus"}, "")
	var ds []float64
	for i := range cols[0] {
		ds = append(ds, cols[0][i]-cols[1][i])
	}
	wantT := stats.Mean(ds) / stats.StdErr(ds)
	near(t, tt.T, wantT, 1e-9, "paired t")
	near(t, tt.N, float64(len(ds)), 0, "n pairs")
}

func TestPearsonMatchesPooled(t *testing.T) {
	m, pooled := testFed(t, 3, 150, false)
	req := Request{
		Datasets: []string{"edsd"},
		Y:        []string{"minimentalstate"},
		X:        []string{"lefthippocampus", "p_tau"},
	}
	res := runAlg(t, m, "pearson_correlation", req)
	corrs := res["correlations"].([]Correlation)
	if len(corrs) != 2 {
		t.Fatalf("pairs = %d", len(corrs))
	}
	for _, c := range corrs {
		cols := pooledColumns(t, pooled, []string{"minimentalstate", "lefthippocampus", "p_tau"}, "")
		y := cols[0]
		var x []float64
		if c.X == "lefthippocampus" {
			x = cols[1]
		} else {
			x = cols[2]
		}
		// Reference r over the same complete-cases set (all three vars).
		my, mx := stats.Mean(y), stats.Mean(x)
		var cov, vy, vx float64
		for i := range y {
			cov += (y[i] - my) * (x[i] - mx)
			vy += (y[i] - my) * (y[i] - my)
			vx += (x[i] - mx) * (x[i] - mx)
		}
		want := cov / math.Sqrt(vy*vx)
		near(t, c.R, want, 1e-9, "r("+c.X+")")
		if c.CILow >= c.R || c.CIHigh <= c.R {
			t.Fatalf("CI does not bracket r: %+v", c)
		}
	}
	// MMSE-hippocampus positive, MMSE-ptau negative in the synthetic data.
	if corrs[0].R <= 0 {
		t.Fatal("MMSE~hippocampus should be positive")
	}
	if corrs[1].R >= 0 {
		t.Fatal("MMSE~p_tau should be negative")
	}
}

func TestANOVAOneWayMatchesPooled(t *testing.T) {
	m, pooled := testFed(t, 3, 200, false)
	req := Request{
		Datasets:   []string{"edsd"},
		Y:          []string{"lefthippocampus"},
		X:          []string{"alzheimerbroadcategory"},
		Parameters: map[string]any{"levels": []any{"CN", "MCI", "AD"}},
	}
	res := runAlg(t, m, "anova_oneway", req)
	table := res["table"].([]ANOVATable)

	// Reference: compute SSB/SSW from pooled rows.
	groups := map[string][]float64{}
	for _, lvl := range []string{"CN", "MCI", "AD"} {
		groups[lvl] = pooledColumns(t, pooled, []string{"lefthippocampus"}, "alzheimerbroadcategory = '"+lvl+"'")[0]
	}
	var all []float64
	for _, g := range groups {
		all = append(all, g...)
	}
	grand := stats.Mean(all)
	var ssb, ssw float64
	for _, g := range groups {
		gm := stats.Mean(g)
		ssb += float64(len(g)) * (gm - grand) * (gm - grand)
		for _, x := range g {
			ssw += (x - gm) * (x - gm)
		}
	}
	dfb, dfw := 2.0, float64(len(all)-3)
	wantF := (ssb / dfb) / (ssw / dfw)
	near(t, table[0].F, wantF, 1e-8, "F")
	near(t, table[0].SumSq, ssb, 1e-7, "SSB")
	near(t, table[1].SumSq, ssw, 1e-7, "SSW")
	if table[0].PValue > 1e-6 {
		t.Fatalf("diagnosis effect should be significant: %+v", table[0])
	}
	if eta := res["eta_sq"].(float64); eta <= 0 || eta >= 1 {
		t.Fatalf("eta² = %v", eta)
	}
}

func TestANOVATwoWay(t *testing.T) {
	m, _ := testFed(t, 3, 250, false)
	req := Request{
		Datasets: []string{"edsd"},
		Y:        []string{"lefthippocampus"},
		X:        []string{"alzheimerbroadcategory", "gender"},
		Parameters: map[string]any{"levels": map[string]any{
			"alzheimerbroadcategory": []any{"CN", "MCI", "AD"},
			"gender":                 []any{"F", "M"},
		}},
	}
	res := runAlg(t, m, "anova_twoway", req)
	table := res["table"].([]ANOVATable)
	if len(table) != 4 {
		t.Fatalf("table rows = %d", len(table))
	}
	if table[0].DF != 2 || table[1].DF != 1 || table[2].DF != 2 {
		t.Fatalf("dfs: %v %v %v", table[0].DF, table[1].DF, table[2].DF)
	}
	// Diagnosis strongly significant; gender should not be (not generated).
	if table[0].PValue > 1e-6 {
		t.Fatalf("diagnosis effect should be significant, p=%v", table[0].PValue)
	}
	if table[1].PValue < 0.001 {
		t.Fatalf("gender effect should be weak, p=%v", table[1].PValue)
	}
	// All SS non-negative, residual df sensible.
	for _, row := range table {
		if row.SumSq < 0 {
			t.Fatalf("negative SS: %+v", row)
		}
	}
}

func TestPCAMatchesPooled(t *testing.T) {
	m, pooled := testFed(t, 3, 200, false)
	vars := []string{"lefthippocampus", "leftententorhinalarea", "ab42", "p_tau"}
	res := runAlg(t, m, "pca", Request{Datasets: []string{"edsd"}, Y: vars})
	pca := res["pca"].(PCAResult)

	// Reference: correlation-matrix eigenvalues from pooled rows.
	cols := pooledColumns(t, pooled, vars, "")
	p := len(vars)
	n := len(cols[0])
	corr := stats.NewDense(p, p)
	means := make([]float64, p)
	sds := make([]float64, p)
	for i := range vars {
		means[i] = stats.Mean(cols[i])
		sds[i] = stats.StdDev(cols[i])
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			var c float64
			for r := 0; r < n; r++ {
				c += (cols[i][r] - means[i]) * (cols[j][r] - means[j])
			}
			corr.Set(i, j, c/float64(n-1)/(sds[i]*sds[j]))
		}
	}
	wantVals, _, err := stats.EigenSym(corr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantVals {
		near(t, pca.Eigenvalues[i], wantVals[i], 1e-8, "eigenvalue")
	}
	// Eigenvalues of a correlation matrix sum to p.
	var total float64
	for _, v := range pca.Eigenvalues {
		total += v
	}
	near(t, total, float64(p), 1e-8, "trace")
	if pca.Cumulative[p-1] < 0.999 {
		t.Fatalf("cumulative variance = %v", pca.Cumulative[p-1])
	}
	// The AD-axis (first component) should explain a dominant share.
	if pca.ExplainedVariance[0] < 0.3 {
		t.Fatalf("PC1 explains only %v", pca.ExplainedVariance[0])
	}
}

func TestKMeansClusters(t *testing.T) {
	m, _ := testFed(t, 4, 250, false)
	req := Request{
		Datasets:   []string{"edsd"},
		Y:          []string{"ab42", "p_tau", "leftententorhinalarea"},
		Parameters: map[string]any{"k": 3, "iterations_max_number": 50, "e": 0.001},
	}
	res := runAlg(t, m, "kmeans", req)
	km := res["kmeans"].(KMeansResult)
	if len(km.Centroids) != 3 {
		t.Fatalf("centroids = %d", len(km.Centroids))
	}
	if !km.Converged && km.Iterations != 50 {
		t.Fatalf("did not run to convergence or max: %+v", km)
	}
	var totalSize float64
	for _, s := range km.Sizes {
		if s == 0 {
			t.Fatal("empty cluster survived")
		}
		totalSize += s
	}
	if km.WSS <= 0 {
		t.Fatalf("WSS = %v", km.WSS)
	}
	// k=1 must put everything into a single cluster with larger WSS.
	req.Parameters["k"] = 1
	res1 := runAlg(t, m, "kmeans", req)
	km1 := res1["kmeans"].(KMeansResult)
	if km1.Sizes[0] != totalSize {
		t.Fatalf("k=1 sizes = %v, want %v", km1.Sizes[0], totalSize)
	}
	if km1.WSS <= km.WSS {
		t.Fatalf("WSS must decrease with k: k1=%v k3=%v", km1.WSS, km.WSS)
	}
}

func TestKMeansSecureMatchesPlainShape(t *testing.T) {
	plain, _ := testFed(t, 2, 120, false)
	secure, _ := testFed(t, 2, 120, true)
	req := Request{
		Datasets:   []string{"edsd"},
		Y:          []string{"ab42", "p_tau"},
		Parameters: map[string]any{"k": 2, "iterations_max_number": 30},
	}
	kp := runAlg(t, plain, "kmeans", req)["kmeans"].(KMeansResult)
	ks := runAlg(t, secure, "kmeans", req)["kmeans"].(KMeansResult)
	near(t, ks.Sizes[0]+ks.Sizes[1], kp.Sizes[0]+kp.Sizes[1], 1e-9, "total size")
	near(t, ks.WSS, kp.WSS, 1e-2, "secure WSS")
}

func TestLogisticRegressionSeparatesAD(t *testing.T) {
	m, pooled := testFed(t, 3, 250, false)
	req := Request{
		Datasets: []string{"edsd"},
		Y:        []string{"alzheimerbroadcategory"},
		X:        []string{"lefthippocampus", "p_tau"},
		Filter:   "alzheimerbroadcategory IN ('AD', 'CN')",
		Parameters: map[string]any{
			"pos_level": "AD",
		},
	}
	res := runAlg(t, m, "logistic_regression", req)
	model := res["model"].(*LogRegModel)
	if !model.Converged {
		t.Fatalf("IRLS did not converge: %+v", model)
	}
	// Hippocampal volume lowers AD odds; pTau raises them.
	var hip, ptau LogRegCoef
	for _, c := range model.Coefficients {
		switch c.Name {
		case "lefthippocampus":
			hip = c
		case "p_tau":
			ptau = c
		}
	}
	if hip.Estimate >= 0 || hip.PValue > 0.01 {
		t.Fatalf("hippocampus coef %+v should be negative & significant", hip)
	}
	if ptau.Estimate <= 0 || ptau.PValue > 0.01 {
		t.Fatalf("p_tau coef %+v should be positive & significant", ptau)
	}
	if hip.OddsRatio >= 1 || ptau.OddsRatio <= 1 {
		t.Fatalf("odds ratios inconsistent: %v %v", hip.OddsRatio, ptau.OddsRatio)
	}
	// Sanity: n matches pooled complete cases under the filter.
	cols := pooledColumns(t, pooled, []string{"lefthippocampus", "p_tau"},
		"alzheimerbroadcategory IN ('AD', 'CN')")
	if model.N != len(cols[0]) {
		t.Fatalf("N = %d, want %d", model.N, len(cols[0]))
	}
	if model.AIC <= 0 || model.BIC <= model.AIC {
		t.Fatalf("AIC/BIC odd: %v %v", model.AIC, model.BIC)
	}
}

func TestLogisticRegressionCV(t *testing.T) {
	m, _ := testFed(t, 3, 250, false)
	req := Request{
		Datasets: []string{"edsd"},
		Y:        []string{"alzheimerbroadcategory"},
		X:        []string{"lefthippocampus", "p_tau", "ab42"},
		Filter:   "alzheimerbroadcategory IN ('AD', 'CN')",
		Parameters: map[string]any{
			"pos_level": "AD",
			"num_folds": 3,
		},
	}
	res := runAlg(t, m, "logistic_regression_cv", req)
	folds := res["folds"].([]ClassScore)
	if len(folds) != 3 {
		t.Fatalf("folds = %d", len(folds))
	}
	acc := res["mean_accuracy"].(float64)
	auc := res["mean_auc"].(float64)
	if acc < 0.7 {
		t.Fatalf("mean accuracy = %v, biomarkers should separate AD/CN well", acc)
	}
	if auc < 0.8 {
		t.Fatalf("mean AUC = %v", auc)
	}
	for _, f := range folds {
		if f.N == 0 {
			t.Fatalf("fold %d empty", f.Fold)
		}
	}
}

func TestLogisticRegressionErrors(t *testing.T) {
	m, _ := testFed(t, 2, 100, false)
	sess, _ := m.NewSession([]string{"edsd"})
	// Missing pos_level.
	if _, err := (&LogisticRegression{}).Run(sess, Request{
		Datasets: []string{"edsd"}, Y: []string{"alzheimerbroadcategory"}, X: []string{"ab42"},
	}); err == nil {
		t.Fatal("missing pos_level must fail")
	}
	// Single-class outcome.
	sess2, _ := m.NewSession([]string{"edsd"})
	if _, err := (&LogisticRegression{}).Run(sess2, Request{
		Datasets: []string{"edsd"}, Y: []string{"alzheimerbroadcategory"}, X: []string{"ab42"},
		Filter:     "alzheimerbroadcategory = 'AD'",
		Parameters: map[string]any{"pos_level": "AD"},
	}); err == nil {
		t.Fatal("single-class outcome must fail")
	}
}

func TestBinnedAUC(t *testing.T) {
	// Perfect separation: all positives in top bin, negatives in bottom.
	pos := make([]float64, rocBins)
	neg := make([]float64, rocBins)
	pos[rocBins-1] = 50
	neg[0] = 50
	if auc := binnedAUC(pos, neg); math.Abs(auc-1) > 1e-12 {
		t.Fatalf("perfect AUC = %v", auc)
	}
	// Identical distributions → 0.5.
	for i := range pos {
		pos[i], neg[i] = 1, 1
	}
	if auc := binnedAUC(pos, neg); math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("random AUC = %v", auc)
	}
	if !math.IsNaN(binnedAUC(make([]float64, rocBins), neg)) {
		t.Fatal("no positives should be NaN")
	}
}

// TestANOVAResultsMarshal: both ANOVA results must encode with plain
// encoding/json (the REST edge and any result consumer do exactly that),
// with the Residuals row's undefined F and p-value written as null.
func TestANOVAResultsMarshal(t *testing.T) {
	m, _ := testFed(t, 3, 200, false)
	for name, req := range map[string]Request{
		"anova_oneway": {
			Datasets:   []string{"edsd"},
			Y:          []string{"lefthippocampus"},
			X:          []string{"alzheimerbroadcategory"},
			Parameters: map[string]any{"levels": []any{"CN", "MCI", "AD"}},
		},
		"anova_twoway": {
			Datasets: []string{"edsd"},
			Y:        []string{"lefthippocampus"},
			X:        []string{"alzheimerbroadcategory", "gender"},
			Parameters: map[string]any{"levels": map[string]any{
				"alzheimerbroadcategory": []any{"CN", "MCI", "AD"},
				"gender":                 []any{"F", "M"},
			}},
		},
	} {
		buf, err := json.Marshal(runAlg(t, m, name, req))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var out struct {
			Table []map[string]any `json:"table"`
		}
		if err := json.Unmarshal(buf, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		last := out.Table[len(out.Table)-1]
		if last["effect"] != "Residuals" || last["f"] != nil || last["p_value"] != nil {
			t.Errorf("%s: residual row = %v, want null f and p_value", name, last)
		}
		if _, ok := out.Table[0]["f"].(float64); !ok {
			t.Errorf("%s: first effect row = %v, want a numeric f", name, out.Table[0])
		}
	}
}
