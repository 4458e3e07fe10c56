// Package mvedsua is a from-scratch Go reproduction of "MVEDSUA: Higher
// Availability Dynamic Software Updates via Multi-Version Execution"
// (Pina, Andronidis, Hicks, Cadar — ASPLOS 2019).
//
// The system combines Dynamic Software Updating (internal/dsu, the
// Kitsune counterpart) with Multi-Version Execution (internal/mve, the
// Varan counterpart): a dynamic update is applied to a forked copy of
// the running service while the original keeps serving; the updated
// copy catches up through a ring buffer of recorded system calls and is
// validated against the original, with programmer-written rewrite rules
// (internal/dsl) reconciling intentional behaviour differences; any
// unexpected divergence or crash rolls the update back with no state
// loss, and operator-driven promotion exposes the new version once it
// has proven itself.
//
// Everything the paper's evaluation needs is implemented here: the
// virtual OS and deterministic scheduler the servers run on
// (internal/vos, internal/sim), the three servers with their version
// lineages (internal/apps/kvstore, internal/apps/memcache on
// internal/apps/libevent, internal/apps/ftpd), the paper's running
// example (internal/apps/tkv), and the benchmark harness that
// regenerates every table and figure (internal/bench, cmd/benchtool).
//
// Start with DESIGN.md for the system inventory and the per-experiment
// index, examples/quickstart for the API walkthrough, cmd/mvedsua for
// scripted update demos (its §6.2 fault demos run internal/bench's
// experiment rows), and EXPERIMENTS.md for paper-vs-measured results.
package mvedsua
