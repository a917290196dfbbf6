package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"iyp/internal/graph"
	"iyp/internal/ingest"
)

// DatasetsManifestName is the per-dataset input manifest a store-directory
// build writes next to the generation MANIFEST. It records, for every
// dataset ingested into the newest generation, which payloads the crawler
// read and their content hashes — the ground truth a delta build compares
// fresh inputs against to decide what needs re-crawling.
const DatasetsManifestName = "DATASETS"

// DatasetInputs is one dataset's recorded inputs.
type DatasetInputs struct {
	// Hash combines the ordered input records into one comparison key.
	Hash string `json:"hash"`
	// FetchTime is the provenance timestamp stamped on this dataset's
	// relationships in the generation the manifest describes.
	FetchTime time.Time `json:"fetch_time"`
	// Inputs lists the payloads read, in fetch order.
	Inputs []ingest.FetchRecord `json:"inputs"`
}

// DatasetsManifest maps every ingested dataset to its input fingerprint.
type DatasetsManifest struct {
	// Fingerprint identifies the build configuration (simulated-Internet
	// config plus dataset list). A delta build refuses a manifest with a
	// different fingerprint: a changed configuration invalidates every
	// dataset at once, which is a full rebuild, not a delta.
	Fingerprint string `json:"fingerprint"`
	// Generation is the store sequence number the manifest describes.
	Generation uint64                   `json:"generation"`
	Datasets   map[string]DatasetInputs `json:"datasets"`
}

// inputsHash folds ordered fetch records into one key.
func inputsHash(recs []ingest.FetchRecord) string {
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintf(h, "%s %s\n", r.Path, r.SHA256)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// ManifestFromReport builds the manifest for a completed full build.
// Datasets without recorded inputs (failed crawls, checkpoint replays) are
// omitted, so a later delta build conservatively re-crawls them.
func ManifestFromReport(fingerprint string, gen uint64, fetchTime time.Time, rep ingest.Report) *DatasetsManifest {
	m := &DatasetsManifest{
		Fingerprint: fingerprint,
		Generation:  gen,
		Datasets:    make(map[string]DatasetInputs, len(rep.Crawls)),
	}
	for _, c := range rep.Crawls {
		if c.Err != nil || len(c.Inputs) == 0 {
			continue
		}
		m.Datasets[c.Dataset] = DatasetInputs{
			Hash:      inputsHash(c.Inputs),
			FetchTime: fetchTime,
			Inputs:    c.Inputs,
		}
	}
	return m
}

// WriteDatasetsManifest durably replaces dir's DATASETS manifest.
func WriteDatasetsManifest(dir string, m *DatasetsManifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return graph.WriteFileAtomic(filepath.Join(dir, DatasetsManifestName), func(w io.Writer) error {
		_, err := w.Write(append(data, '\n'))
		return err
	})
}

// ReadDatasetsManifest loads dir's DATASETS manifest.
func ReadDatasetsManifest(dir string) (*DatasetsManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, DatasetsManifestName))
	if err != nil {
		return nil, err
	}
	var m DatasetsManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("core: %s: %w", DatasetsManifestName, err)
	}
	if m.Datasets == nil {
		m.Datasets = map[string]DatasetInputs{}
	}
	return &m, nil
}
