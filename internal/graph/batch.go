package graph

import (
	"errors"
	"fmt"
)

// ErrFrozen is returned when a write batch targets a frozen (published)
// generation. Writers must go through an MVStore, which clones the head
// generation and applies batches to the mutable clone.
var ErrFrozen = errors.New("graph: generation is frozen (apply writes through the MVStore)")

// Batch is a staging write-buffer for graph mutations. Writes are recorded
// against virtual node handles and applied to a Graph in a single
// ApplyBatch call, which takes the store lock once and, on a clone of a
// published generation, copies only what its writes land in (see Clone).
// Until ApplyBatch runs, the graph is untouched; discarding a batch
// (dropping the reference) discards every staged write.
//
// This is the substrate of the ingestion layer's atomic crawler commits: a
// crawler stages its whole dataset into a Batch and the pipeline applies it
// only when the crawler finished cleanly, so a failed dataset contributes
// zero nodes and zero relationships.
//
// A Batch is not safe for concurrent use; each writer stages into its own.
type Batch struct {
	merges []stagedMerge
	ops    []stagedOp
	rels   int
}

// stagedMerge is one MergeNode upsert; its index+1 is the virtual NodeID
// handed back to the caller.
type stagedMerge struct {
	label       string
	key         string
	val         Value
	extraLabels []string
	props       Props
}

type opKind uint8

const (
	opSetNodeProp opKind = iota
	opAddLabel
	opAddRel
)

// stagedOp is an ordered mutation referencing virtual node handles.
type stagedOp struct {
	kind  opKind
	node  NodeID // virtual handle
	to    NodeID // virtual handle (opAddRel)
	name  string // property key, label, or relationship type
	val   Value
	props Props
}

// NewBatch returns an empty staging buffer.
func NewBatch() *Batch { return &Batch{} }

// MergeNode stages an identity upsert (same semantics as Graph.MergeNode)
// and returns a virtual handle valid only within this batch. Callers are
// expected to deduplicate identities themselves (the ingest session does);
// staging the same identity twice yields two handles that resolve to the
// same graph node at apply time.
func (b *Batch) MergeNode(label, key string, v Value, extraLabels []string, props Props) NodeID {
	b.merges = append(b.merges, stagedMerge{
		label:       label,
		key:         key,
		val:         v,
		extraLabels: append([]string(nil), extraLabels...),
		props:       props.Clone(),
	})
	return NodeID(len(b.merges))
}

// check validates a virtual handle.
func (b *Batch) check(id NodeID) error {
	if id == 0 || int(id) > len(b.merges) {
		return fmt.Errorf("graph: batch: invalid staged node handle %d", id)
	}
	return nil
}

// MergeProps stages creation-time properties for a staged node: at apply
// time they merge with existing-values-win semantics, and within the batch
// the first staged value for a key wins.
func (b *Batch) MergeProps(id NodeID, props Props) error {
	if err := b.check(id); err != nil {
		return err
	}
	m := &b.merges[id-1]
	if m.props == nil {
		m.props = Props{}
	}
	for k, v := range props {
		if _, ok := m.props[k]; !ok {
			m.props[k] = v
		}
	}
	return nil
}

// SetNodeProp stages an unconditional property write on a staged node.
func (b *Batch) SetNodeProp(id NodeID, key string, v Value) error {
	if err := b.check(id); err != nil {
		return err
	}
	b.ops = append(b.ops, stagedOp{kind: opSetNodeProp, node: id, name: key, val: v})
	return nil
}

// AddLabel stages an extra label on a staged node.
func (b *Batch) AddLabel(id NodeID, label string) error {
	if err := b.check(id); err != nil {
		return err
	}
	b.ops = append(b.ops, stagedOp{kind: opAddLabel, node: id, name: label})
	return nil
}

// AddRel stages a relationship between two staged nodes.
func (b *Batch) AddRel(typ string, from, to NodeID, props Props) error {
	if err := b.check(from); err != nil {
		return err
	}
	if err := b.check(to); err != nil {
		return err
	}
	b.ops = append(b.ops, stagedOp{kind: opAddRel, node: from, to: to, name: typ, props: props.Clone()})
	b.rels++
	return nil
}

// Staged returns the number of staged node upserts and relationships.
func (b *Batch) Staged() (nodes, rels int) { return len(b.merges), b.rels }

// BatchResult summarizes an applied batch.
type BatchResult struct {
	// NodesCreated counts staged upserts that created a node (the rest
	// merged into nodes that already existed).
	NodesCreated int
	// RelsCreated counts relationships added.
	RelsCreated int
	// IDs maps each virtual handle (index+1) to the graph node it resolved
	// to, letting callers translate staged handles after the fact.
	IDs []NodeID
}

// ApplyBatch applies every staged write under one lock, in staging order:
// node upserts first (resolving virtual handles to graph IDs), then the
// ordered property/label/relationship ops. Handles are validated at staging
// time, so apply cannot fail halfway on caller input; an error here means a
// corrupted batch and reports how far the apply got.
func (g *Graph) ApplyBatch(b *Batch) (BatchResult, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var res BatchResult
	if g.frozen {
		return res, ErrFrozen
	}
	ids := make([]NodeID, len(b.merges))
	res.IDs = ids
	for i, m := range b.merges {
		id, created := g.mergeNodeLocked(m.label, m.key, m.val, m.extraLabels, m.props)
		ids[i] = id
		if created {
			res.NodesCreated++
		}
	}
	for _, op := range b.ops {
		if int(op.node) > len(ids) {
			return res, fmt.Errorf("graph: batch: op references unknown handle %d", op.node)
		}
		switch op.kind {
		case opSetNodeProp:
			g.setNodePropLocked(ids[op.node-1], op.name, op.val)
		case opAddLabel:
			g.addLabelLocked(ids[op.node-1], op.name)
		case opAddRel:
			if int(op.to) > len(ids) {
				return res, fmt.Errorf("graph: batch: op references unknown handle %d", op.to)
			}
			if _, err := g.addRelLocked(op.name, ids[op.node-1], ids[op.to-1], op.props); err != nil {
				return res, err
			}
			res.RelsCreated++
		}
	}
	return res, nil
}
