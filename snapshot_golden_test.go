package iyp_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
	"time"

	"iyp/internal/core"
	"iyp/internal/graph"
	"iyp/internal/simnet"
)

// TestSnapshotBytesGolden pins the exact bytes Save writes — their length
// and sha256 — for two graphs, serially and at the default parallelism:
//
//   - a full build at scale 0.03 with a pinned fetch time, the graph every
//     store generation and replica reload is made of;
//   - a small graph loaded against a dictionary that interned its keys in
//     reverse name order, so every property column sits in key-id order
//     that disagrees with the key-name order the file is written in.
//
// Readers verify snapshots by checksum and compare generations by bytes,
// so any change to the encoder that moves one byte fails here, however
// the encoder is scheduled.
func TestSnapshotBytesGolden(t *testing.T) {
	build, err := core.Build(context.Background(), core.BuildOptions{
		Config:    simnet.DefaultConfig().Scale(0.03),
		FetchTime: time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want string
	}{
		{"build scale 0.03", build.Graph, "124618 3fc03ee303efc7334d462fa26908568b01e3743286a7e87cf943330157fc4170"},
		{"columns out of key-name order", reversedKeyGraph(t), "1007 b19feae8aa3a858e228346600a0db7f257d54cc4354cb26598f23be7b12a2aff"},
	} {
		for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
			prev := runtime.GOMAXPROCS(procs)
			var buf bytes.Buffer
			err := tc.g.Save(&buf)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%d %x", buf.Len(), sha256.Sum256(buf.Bytes())); got != tc.want {
				t.Errorf("%s at GOMAXPROCS %d: snapshot %s, want %s", tc.name, procs, got, tc.want)
			}
		}
	}
}

// reversedKeyGraph loads a 40-node ring (three node properties, two rel
// properties, a self-loop per node) against a dictionary whose first
// strings are the property keys in reverse name order.
func reversedKeyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	const n = 40
	g := graph.New()
	for i := range n {
		g.AddNode([]string{"AS"}, graph.Props{"asn": graph.Int(int64(i)), "name": graph.String(fmt.Sprintf("n%d", i)), "z": graph.Bool(i%2 == 0)})
	}
	for i := 1; i <= n; i++ {
		id := graph.NodeID(i)
		if _, err := g.AddRel("R", id, graph.NodeID(i%n+1), graph.Props{"w": graph.Int(int64(i)), "src": graph.String("ring")}); err != nil {
			t.Fatal(err)
		}
		if _, err := g.AddRel("LOOP", id, id, graph.Props{"w": graph.Int(int64(-i))}); err != nil {
			t.Fatal(err)
		}
	}
	g.EnsureIndex("AS", "asn")
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}

	seed := graph.New()
	for _, key := range []string{"z", "w", "src", "name", "asn"} {
		seed.AddNode(nil, graph.Props{key: graph.Int(0)})
	}
	if z, _ := seed.Interner().Lookup("z"); z != 0 {
		t.Fatalf("seed dictionary interned z as id %d, want 0", z)
	}
	loaded, _, err := graph.LoadWith(&buf, graph.LoadOptions{Dict: seed.Interner()})
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}
