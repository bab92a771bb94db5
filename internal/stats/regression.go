package stats

import (
	"errors"
	"fmt"
	"math"
)

// LinearModel is a fitted multiple linear regression
//
//	Y = β0 + β1·X1 + β2·X2 + … + βk·Xk
//
// exactly the estimator form the paper uses for Caption (§6.1, Eq. 1): the
// X_n are PMU counter values (L1 miss latency, DDR read latency, IPC) and Y
// is the estimated memory-subsystem performance.
type LinearModel struct {
	// Intercept is β0.
	Intercept float64
	// Coefficients holds β1..βk, one per feature.
	Coefficients []float64
}

// ErrSingular is returned when the normal-equation system is singular —
// typically because a feature is constant or two features are collinear in
// the training data.
var ErrSingular = errors.New("stats: singular regression system")

// FitLinear fits the model by ordinary least squares using the normal
// equations with Gaussian elimination and partial pivoting. rows[i] is the
// feature vector for observation i; y[i] is the response. All rows must have
// the same length k >= 1 and there must be at least k+1 observations.
func FitLinear(rows [][]float64, y []float64) (*LinearModel, error) {
	n := len(rows)
	if n == 0 || n != len(y) {
		return nil, fmt.Errorf("stats: FitLinear with %d rows and %d responses", n, len(y))
	}
	k := len(rows[0])
	if k == 0 {
		return nil, errors.New("stats: FitLinear with zero features")
	}
	for i, r := range rows {
		if len(r) != k {
			return nil, fmt.Errorf("stats: row %d has %d features, want %d", i, len(r), k)
		}
	}
	if n < k+1 {
		return nil, fmt.Errorf("stats: %d observations cannot identify %d parameters", n, k+1)
	}

	// Build the (k+1)x(k+1) normal equations A·β = b over the design matrix
	// with a leading column of ones for the intercept.
	dim := k + 1
	a := make([][]float64, dim)
	for i := range a {
		a[i] = make([]float64, dim+1) // augmented column holds b
	}
	feat := func(row []float64, j int) float64 {
		if j == 0 {
			return 1
		}
		return row[j-1]
	}
	for idx, row := range rows {
		for i := 0; i < dim; i++ {
			fi := feat(row, i)
			for j := 0; j < dim; j++ {
				a[i][j] += fi * feat(row, j)
			}
			a[i][dim] += fi * y[idx]
		}
	}

	beta, err := solveGaussian(a)
	if err != nil {
		return nil, err
	}
	return &LinearModel{Intercept: beta[0], Coefficients: beta[1:]}, nil
}

// solveGaussian solves the augmented system in place and returns the solution
// vector. a is dim rows of dim+1 columns.
func solveGaussian(a [][]float64) ([]float64, error) {
	dim := len(a)
	for col := 0; col < dim; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < dim; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[pivot] = a[pivot], a[col]
		// Eliminate below.
		for r := col + 1; r < dim; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c <= dim; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	// Back substitution.
	beta := make([]float64, dim)
	for i := dim - 1; i >= 0; i-- {
		sum := a[i][dim]
		for j := i + 1; j < dim; j++ {
			sum -= a[i][j] * beta[j]
		}
		beta[i] = sum / a[i][i]
	}
	return beta, nil
}

// Predict evaluates the model at the feature vector x, which must have one
// value per coefficient.
func (m *LinearModel) Predict(x []float64) float64 {
	if len(x) != len(m.Coefficients) {
		panic(fmt.Sprintf("stats: Predict with %d features, model has %d", len(x), len(m.Coefficients)))
	}
	y := m.Intercept
	for i, c := range m.Coefficients {
		y += c * x[i]
	}
	return y
}
