package bench

import "testing"

// BenchmarkAdaptJacobi64 runs the adapt experiment's headline pair — the
// 64-node jacobi from misplaced homes, static vs profiler-driven home
// migration — and reports the placement accounting. Everything is
// virtual-time exact, so the metrics are identical on every machine; the CI
// smoke (`go test -bench Adapt -benchtime=1x ./internal/bench`) uses this to
// catch a regression where migration stops reducing jacobi's remote fetches.
func BenchmarkAdaptJacobi64(b *testing.B) {
	var pair *adaptRun
	for _, a := range adaptRuns() {
		if a.app == "jacobi" && a.nodes == 64 {
			pair = &a
			break
		}
	}
	if pair == nil {
		b.Fatal("the 64-node jacobi scenario is missing from the suite")
	}
	var static, adaptive AdaptResult
	for i := 0; i < b.N; i++ {
		static, adaptive = pair.measure(false), pair.measure(true)
	}
	if static.RemoteFetches <= 0 || adaptive.RemoteFetches <= 0 {
		b.Fatalf("degenerate remote fetch counts: static %d, adaptive %d",
			static.RemoteFetches, adaptive.RemoteFetches)
	}
	if adaptive.HomeMigrations == 0 {
		b.Fatal("the decision engine migrated nothing")
	}
	ratio := float64(static.RemoteFetches) / float64(adaptive.RemoteFetches)
	if ratio < 1.5 {
		b.Fatalf("remote-fetch reduction %.2fx < 1.5x (static %d, adaptive %d)",
			ratio, static.RemoteFetches, adaptive.RemoteFetches)
	}
	b.ReportMetric(float64(static.RemoteFetches), "remote-fetches-static")
	b.ReportMetric(float64(adaptive.RemoteFetches), "remote-fetches-adaptive")
	b.ReportMetric(ratio, "remote-fetch-reduction-x")
	b.ReportMetric(float64(adaptive.HomeMigrations), "home-migrations")
	b.ReportMetric(adaptive.VirtualMS, "virtual-ms-adaptive")
}
