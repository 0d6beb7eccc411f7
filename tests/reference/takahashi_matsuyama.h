// Takahashi–Matsuyama (1980) path heuristic: the Steiner approximation
// ablation A4 measures against the paper's KMB. Production code runs KMB
// only (graph/steiner.h); this copy exists so the ablation and its tests
// keep a second engine to compare with.
#pragma once

#include <span>

#include "graph/steiner.h"

namespace nfvm::reference {

/// Grows the tree from the smallest terminal, repeatedly attaching the
/// closest unconnected terminal along a shortest path (one multi-source
/// Dijkstra from the whole current tree per attachment). Same 2(1 - 1/t)
/// guarantee as KMB, often different (sometimes better) trees, and cheaper
/// per call: t Dijkstras but no metric-closure MST/expansion. Vertices
/// settle in (distance, vertex id) order and the first pending terminal to
/// settle is attached. Duplicate terminals are ignored; throws
/// std::out_of_range on invalid vertices and std::invalid_argument when
/// `terminals` is empty. Counted by graph.steiner.tm.runs.
graph::SteinerResult takahashi_matsuyama_steiner(
    const graph::Graph& g, std::span<const graph::VertexId> terminals);

}  // namespace nfvm::reference
