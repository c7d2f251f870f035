// This file is the graph artifact store: every succeeded campaign job
// persists its annotated causal graph (the schema-v1 JSON round trip
// from internal/core/graph) as a served artifact, and POST
// /v1/graphs/merge stitches stored graphs into new artifacts --
// server-side cross-campaign stitching, where previously only the
// csnake CLI's -edges-out/-edges-in flags could. With a data directory
// configured, artifacts survive daemon restarts.

package service

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core/graph"
)

// GraphArtifact is one stored graph: metadata plus the serialized
// schema-v1 JSON document.
type GraphArtifact struct {
	Info GraphInfo
	data []byte
}

// Data returns the serialized graph document (schema-v1 JSON).
func (a *GraphArtifact) Data() []byte { return a.data }

// GraphStore holds graph artifacts in memory and, when dir is set,
// mirrors them to <dir>/<id>.graph.json. Artifacts are immutable once
// stored.
type GraphStore struct {
	mu    sync.Mutex
	dir   string
	arts  map[string]*GraphArtifact
	order []string
	seq   int
}

// NewGraphStore opens a store over dir ("" = memory only), reloading
// any artifacts a previous daemon left there.
func NewGraphStore(dir string) (*GraphStore, error) {
	s := &GraphStore{dir: dir, arts: make(map[string]*GraphArtifact)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("graph store: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "g*.graph.json"))
	if err != nil {
		return nil, fmt.Errorf("graph store: %w", err)
	}
	sort.Strings(names)
	for _, path := range names {
		id := strings.TrimSuffix(filepath.Base(path), ".graph.json")
		// A corrupt or unreadable artifact (e.g. torn by a crash predating
		// atomic writes) is skipped and logged, never fatal: one bad file
		// must not keep the daemon from booting.
		data, err := os.ReadFile(path)
		var g *graph.Graph
		if err == nil {
			g, err = graph.Load(bytes.NewReader(data)) // load = well-formedness pass
		}
		if err != nil {
			log.Printf("csnaked: graph store: skipping corrupt artifact %s: %v", path, err)
			continue
		}
		var created time.Time
		if fi, err := os.Stat(path); err == nil {
			created = fi.ModTime()
		}
		s.add(id, "reloaded", g, data, created)
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "g")); err == nil && n > s.seq {
			s.seq = n
		}
	}
	return s, nil
}

// Put serializes g and stores it as a new artifact.
func (s *GraphStore) Put(source string, g *graph.Graph) (*GraphArtifact, error) {
	data, err := g.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("graph store: %w", err)
	}
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("g%d", s.seq)
	art := s.add(id, source, g, data, time.Now())
	dir := s.dir
	s.mu.Unlock()
	if dir != "" {
		// Atomic (tmp + fsync + rename): a daemon crash mid-write leaves
		// either no artifact or a complete one, never a torn file.
		if err := atomicWriteFile(filepath.Join(dir, id+".graph.json"), data, 0o644); err != nil {
			return nil, fmt.Errorf("graph store: %w", err)
		}
	}
	return art, nil
}

// add stores g, serialized as data, as artifact id: the one place a
// GraphInfo is assembled. Caller holds s.mu (or owns s, at boot).
func (s *GraphStore) add(id, source string, g *graph.Graph, data []byte, created time.Time) *GraphArtifact {
	art := &GraphArtifact{
		Info: GraphInfo{
			ID: id, System: g.System(), Source: source,
			Edges: g.Len(), Faults: g.NumFaults(),
			Bytes: len(data), Created: created,
		},
		data: data,
	}
	s.arts[id] = art
	s.order = append(s.order, id)
	return art
}

// Get returns a stored artifact.
func (s *GraphStore) Get(id string) (*GraphArtifact, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.arts[id]
	return a, ok
}

// List returns artifact metadata in storage order.
func (s *GraphStore) List() []GraphInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]GraphInfo, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.arts[id].Info)
	}
	return out
}

// Len returns the number of stored artifacts.
func (s *GraphStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.arts)
}

// Load deserializes a stored artifact back into a graph.
func (s *GraphStore) Load(id string) (*graph.Graph, error) {
	a, ok := s.Get(id)
	if !ok {
		return nil, fmt.Errorf("unknown graph %q", id)
	}
	g := graph.New()
	if err := g.UnmarshalJSON(a.data); err != nil {
		return nil, err
	}
	return g, nil
}

// Merge stitches the named artifacts into one graph (graph.Merge
// semantics: edge identities dedup, evidence accumulates up to the cap)
// and stores the result as a new artifact. At least one id is required;
// the merged artifact's system is the shared system name, or "" when
// the sources span systems.
func (s *GraphStore) Merge(ids []string) (*GraphArtifact, *graph.Graph, error) {
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("merge: no graph ids given")
	}
	merged := graph.New()
	system := ""
	for i, id := range ids {
		g, err := s.Load(id)
		if err != nil {
			return nil, nil, err
		}
		if i == 0 {
			system = g.System()
		} else if system != g.System() {
			system = ""
		}
		merged.Merge(g)
	}
	merged.SetSystem(system)
	art, err := s.Put("merge:"+strings.Join(ids, "+"), merged)
	if err != nil {
		return nil, nil, err
	}
	return art, merged, nil
}
