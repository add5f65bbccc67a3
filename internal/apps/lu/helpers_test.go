package lu

// Test-only: the serial reference the tests check the parallel kernel against.

// SolveSerial factorizes the matrix in place (plain Go) and returns the
// checksum of the combined LU factors, as the reference for tests.
func SolveSerial(n int, seed int64) float64 {
	a := Matrix(n, seed)
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			m := a[i][k] / a[k][k]
			a[i][k] = m
			for j := k + 1; j < n; j++ {
				a[i][j] -= m * a[k][j]
			}
		}
	}
	return checksum(a)
}
