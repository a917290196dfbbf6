package core

import (
	"bytes"
	"context"
	"io"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"iyp/internal/crawlers"
	"iyp/internal/graph"
	"iyp/internal/ontology"
	"iyp/internal/source"
	"iyp/internal/temporal"
)

// fullBuildIntoStore runs a full build and publishes it as generation 1 of
// a fresh store, with the DATASETS manifest a delta build needs — the same
// sequence `iyp-build -store` performs.
func fullBuildIntoStore(t *testing.T, dir string, opts BuildOptions) *BuildResult {
	t.Helper()
	res, err := Build(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := graph.OpenStore(dir, graph.StoreOptions{Keep: 5})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := st.Save(res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	man := ManifestFromReport(res.Fingerprint, gen.Seq, res.FetchTime, res.Report)
	if err := WriteDatasetsManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeltaUnchangedInputsPublishesNothing(t *testing.T) {
	dir := t.TempDir()
	opts := BuildOptions{Config: smallConfig()}
	full := fullBuildIntoStore(t, dir, opts)

	res, err := BuildDelta(context.Background(), DeltaOptions{Build: opts, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Unchanged {
		t.Fatalf("delta against identical inputs re-crawled %v", res.Recrawled)
	}
	if res.PrevSeq != 1 || res.Gen.Seq != 0 {
		t.Fatalf("unchanged delta: prev=%d gen=%+v", res.PrevSeq, res.Gen)
	}
	// Nothing new on disk; the store still holds exactly generation 1.
	st, err := graph.OpenStore(dir, graph.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	gens, err := st.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0].Seq != 1 {
		t.Fatalf("store generations after no-op delta: %+v", gens)
	}
	// And the returned graph IS the previous build's content.
	full.Graph.Freeze()
	res.Graph.Freeze()
	d, err := temporal.Diff(context.Background(), full.Graph, res.Graph, temporal.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("no-op delta graph differs from the full build:\n%s", d)
	}
}

// TestDeltaForcedRecrawlEquivalentToFullBuild is the ISSUE's equivalence
// bar: a delta that re-crawls a dataset whose inputs did not change must
// publish a generation semantically identical to a full rebuild —
// temporal.Diff between the two is empty. FetchTime is pinned so
// provenance timestamps cannot differ between the two runs.
func TestDeltaForcedRecrawlEquivalentToFullBuild(t *testing.T) {
	fetchTime := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	opts := BuildOptions{Config: smallConfig(), FetchTime: fetchTime}

	dir := t.TempDir()
	fullBuildIntoStore(t, dir, opts)

	res, err := BuildDelta(context.Background(), DeltaOptions{
		Build:    opts,
		StoreDir: dir,
		Datasets: []string{"bgpkit.pfx2asn", "ripe.as_names"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unchanged {
		t.Fatal("forced re-crawl reported unchanged")
	}
	if len(res.Recrawled) != 2 {
		t.Fatalf("re-crawled %v, want exactly the 2 forced datasets", res.Recrawled)
	}
	if res.Gen.Seq != 2 || res.PrevSeq != 1 {
		t.Fatalf("delta published generation %d from %d, want 2 from 1", res.Gen.Seq, res.PrevSeq)
	}
	if res.RelsDeleted == 0 {
		t.Fatal("forced re-crawl deleted no relationships — the dataset drop did not run")
	}
	// The published generation's intern table was seeded from the previous
	// generation's: most strings carried over, only the re-crawl's new
	// strings allocated on top.
	if res.DictCarried == 0 {
		t.Fatal("delta carried no dictionary strings from the previous generation")
	}
	if res.DictTotal < res.DictCarried {
		t.Fatalf("delta dictionary shrank: %d carried, %d total (the table is append-only)", res.DictCarried, res.DictTotal)
	}

	// An independent full rebuild with the same pinned inputs.
	ref, err := Build(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}

	ref.Graph.Freeze()
	res.Graph.Freeze()
	d, err := temporal.Diff(context.Background(), ref.Graph, res.Graph, temporal.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("delta build differs from full rebuild:\n%s", d)
	}
}

func TestDeltaRejectsUnknownDatasetAndMissingManifest(t *testing.T) {
	opts := BuildOptions{Config: smallConfig()}

	// No manifest: the store was never written by a full -store build.
	dir := t.TempDir()
	if _, err := graph.OpenStore(dir, graph.StoreOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildDelta(context.Background(), DeltaOptions{Build: opts, StoreDir: dir}); err == nil {
		t.Fatal("delta without a DATASETS manifest succeeded")
	}

	dir2 := t.TempDir()
	fullBuildIntoStore(t, dir2, opts)
	if _, err := BuildDelta(context.Background(), DeltaOptions{
		Build: opts, StoreDir: dir2, Datasets: []string{"no.such.dataset"},
	}); err == nil {
		t.Fatal("delta with an unknown forced dataset succeeded")
	}

	// A different simulated Internet means a different fingerprint: the
	// delta must refuse rather than mix two worlds.
	other := opts
	other.Config.Seed += 1000
	if _, err := BuildDelta(context.Background(), DeltaOptions{Build: other, StoreDir: dir2}); err == nil {
		t.Fatal("delta against a mismatched build fingerprint succeeded")
	}
}

// diffEmpty fails unless got is semantically identical to want.
func diffEmpty(t *testing.T, what string, want, got *graph.Graph) {
	t.Helper()
	want.Freeze()
	got.Freeze()
	d, err := temporal.Diff(context.Background(), want, got, temporal.DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Fatalf("%s differs from the full build:\n%s", what, d)
	}
}

// TestDeltaEveryDatasetEquivalentToFullBuild forces every dataset in turn
// as a chain of deltas on one store: each generation is built from the
// previous delta's, and each must equal the same pinned full build.
func TestDeltaEveryDatasetEquivalentToFullBuild(t *testing.T) {
	opts := BuildOptions{Config: smallConfig(), FetchTime: time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)}
	dir := t.TempDir()
	full := fullBuildIntoStore(t, dir, opts)
	for i, c := range crawlers.All() {
		name := c.Reference().Name
		res, err := BuildDelta(context.Background(), DeltaOptions{Build: opts, StoreDir: dir, Datasets: []string{name}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := uint64(i + 2); res.Gen.Seq != want || !slices.Equal(res.Recrawled, []string{name}) {
			t.Fatalf("%s: published generation %d re-crawling %v, want %d re-crawling only it", name, res.Gen.Seq, res.Recrawled, want)
		}
		diffEmpty(t, "delta forcing "+name, full.Graph, res.Graph)
	}
}

// dropLines wraps a fetcher and removes, from the payloads at the given
// paths, every line its predicate selects.
type dropLines struct {
	base source.Fetcher
	drop map[string]func(line string) bool
}

func (f dropLines) Fetch(ctx context.Context, path string) (io.ReadCloser, error) {
	drop, ok := f.drop[path]
	if !ok {
		return f.base.Fetch(ctx, path)
	}
	data, err := source.ReadAll(ctx, f.base, path)
	if err != nil {
		return nil, err
	}
	var kept []byte
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !drop(strings.TrimSuffix(line, "\n")) {
			kept = append(kept, line...)
		}
	}
	return io.NopCloser(bytes.NewReader(kept)), nil
}

// linkedOnlyBy returns, for every node whose relationships all come from
// dataset, the string value of its property key.
func linkedOnlyBy(g *graph.Graph, dataset, key string) map[string]bool {
	out := make(map[string]bool)
	var buf []graph.RelID
	g.EachNode(func(id graph.NodeID) bool {
		rels := g.Rels(id, graph.DirBoth, nil, buf[:0])
		for _, r := range rels {
			if name, _ := g.RelProp(r, ontology.PropReferenceName).AsString(); name != dataset {
				return true
			}
		}
		if v, ok := g.NodeProp(id, key).AsString(); ok && len(rels) > 0 {
			out[v] = true
		}
		return true
	})
	return out
}

// TestDeltaOrphanGCMatchesFullBuild re-crawls two datasets whose inputs
// lost records that only they linked: the AS names that only ripe.as_names
// links (the Name node is the rel's target) and the countries that only
// worldbank.country_pop links (the Country node is the rel's source). The
// delta must delete those nodes and match a full build through the same
// filter, and two identical deltas must publish the same bytes.
func TestDeltaOrphanGCMatchesFullBuild(t *testing.T) {
	opts := BuildOptions{Config: smallConfig(), FetchTime: time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)}
	prev, err := Build(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	names := linkedOnlyBy(prev.Graph, "ripe.as_names", "name")
	countries := linkedOnlyBy(prev.Graph, "worldbank.country_pop", "alpha3")
	if len(names) == 0 || len(countries) == 0 {
		t.Fatalf("fixture: %d names only ripe.as_names links, %d countries only worldbank.country_pop links", len(names), len(countries))
	}
	filtered := opts
	filtered.WrapFetcher = func(f source.Fetcher) source.Fetcher {
		return dropLines{base: f, drop: map[string]func(string) bool{
			source.PathRIPEASNames: func(line string) bool { // "<asn> <name>, <CC>"
				_, rest, _ := strings.Cut(line, " ")
				if i := strings.LastIndex(rest, ", "); i >= 0 {
					rest = rest[:i]
				}
				return names[rest]
			},
			source.PathWorldBankPop: func(line string) bool { // "<alpha3>,<population>"
				cc, _, _ := strings.Cut(line, ",")
				return countries[cc]
			},
		}}
	}
	ref, err := Build(context.Background(), filtered)
	if err != nil {
		t.Fatal(err)
	}

	var published [][]byte
	for range 2 {
		dir := t.TempDir()
		fullBuildIntoStore(t, dir, opts)
		res, err := BuildDelta(context.Background(), DeltaOptions{
			Build:    filtered,
			StoreDir: dir,
			Datasets: []string{"ripe.as_names", "worldbank.country_pop"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := len(names) + len(countries); res.NodesDeleted != want {
			t.Fatalf("delta deleted %d nodes, want the %d only the filtered records linked", res.NodesDeleted, want)
		}
		diffEmpty(t, "delta through the filter", ref.Graph, res.Graph)
		data, err := os.ReadFile(res.Gen.Path)
		if err != nil {
			t.Fatal(err)
		}
		published = append(published, data)
	}
	if !bytes.Equal(published[0], published[1]) {
		t.Fatal("two identical delta runs published different snapshots")
	}
}

// TestDeltaRejectsBeforeLoading: an unknown forced dataset or a store
// built from another configuration is refused before the previous
// generation starts loading, so no load is left running behind the error.
func TestDeltaRejectsBeforeLoading(t *testing.T) {
	opts := BuildOptions{Config: smallConfig()}
	dir := t.TempDir()
	fullBuildIntoStore(t, dir, opts)
	other := opts
	other.Config.Seed += 1000
	for _, tc := range []struct {
		name string
		opts DeltaOptions
	}{
		{"unknown dataset", DeltaOptions{Build: opts, StoreDir: dir, Datasets: []string{"no.such.dataset"}}},
		{"fingerprint mismatch", DeltaOptions{Build: other, StoreDir: dir}},
	} {
		loads := 0
		tc.opts.onLoad = func() { loads++ }
		if _, err := BuildDelta(context.Background(), tc.opts); err == nil {
			t.Fatalf("%s: delta succeeded", tc.name)
		}
		if loads != 0 {
			t.Fatalf("%s: the previous generation started loading before the delta was refused", tc.name)
		}
	}
	loads := 0
	if _, err := BuildDelta(context.Background(), DeltaOptions{Build: opts, StoreDir: dir, onLoad: func() { loads++ }}); err != nil || loads != 1 {
		t.Fatalf("accepted delta: %d loads, %v", loads, err)
	}
}
