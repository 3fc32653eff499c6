// Package qei is a full-system reproduction of "QEI: Query Acceleration
// Can be Generic and Efficient in the Cloud" (HPCA 2021).
//
// QEI is an on-chip accelerator for fine-grained data-structure queries:
// lookups in hash tables, trees, tries, linked lists, and skip lists are
// abstracted into configurable finite automata (CFAs) executed by a small
// engine that keeps many queries in flight, with key comparisons pushed
// out to the last-level-cache slices for near-data execution.
//
// This package is the public facade over the simulation stack in
// internal/: a cycle-approximate 24-core machine model (out-of-order
// cores, L1/L2, NUCA LLC on a mesh NoC, TLBs, DRAM), the QEI accelerator
// micro-architecture, five CPU-integration schemes, the five cloud
// workloads of the paper's evaluation, and an area/power model.
//
// # Quick start
//
//	sys := qei.NewSystem(qei.CoreIntegrated)
//	table, err := sys.Build(qei.KindCuckoo, keys, values)
//	res, err := sys.Query(table, keys[0])
//	// res.Value, res.Found, res.Latency (cycles)
//
// One Build entrypoint lays out every built-in structure kind
// (StructKinds); BuildMutable returns an updatable handle for the kinds
// with software insert and delete routines.
//
// # Experiments
//
// Every table and figure of the paper's evaluation, and each ablation,
// is an entry of the experiment registry in internal/exp, run by
// `go run ./cmd/qeibench -exp NAME`. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for paper-vs-measured results.
package qei
