#ifndef DKINDEX_IO_SERIALIZATION_H_
#define DKINDEX_IO_SERIALIZATION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/data_graph.h"
#include "index/dk_index.h"
#include "index/index_graph.h"
#include "io/byte_sink.h"

namespace dki {

// Persistence for graphs and indexes, so a built summary can be stored next
// to the document and reattached without reconstruction. One binary format
// ("dki-graph v2\n" magic line, then varint sections with delta-encoded
// adjacency/extent arrays — io/varint.h). Label names are length-prefixed,
// so any byte sequence round-trips. The checkpoint pipeline streams it
// through a ByteSink, so arbitrarily large states never get buffered whole.
//
// Encoders emit through a ByteSink (StringSink for in-memory buffers, or
// AtomicFileWriter to stream to disk); they return false iff the sink
// reported a write failure. Decoders are cursor-based: `*pos` is advanced
// past the decoded section, so sections compose (graph + index + reqs in
// one buffer). Loading validates structure and returns false + error on any
// mismatch (never aborts). The index section stores extents and local
// similarities; adjacency is re-derived on load (it is a function of the
// partition and the graph).

bool SaveGraphV2(const DataGraph& graph, ByteSink* sink);
bool LoadGraphV2(std::string_view data, size_t* pos, DataGraph* graph,
                 std::string* error);

// One index node as the index section stores it.
struct IndexNodeRecord {
  LabelId label = kInvalidLabel;
  int k = 0;
  std::span<const NodeId> extent;  // in the index's extent order
};

// What the index section encoder reads: `num_index_nodes` records, record
// i from `node(i)`. An IndexGraph converts implicitly (a built or loaded
// index, `dkquery build`); a published snapshot builds one over its
// FrozenView's arrays (IndexSnapshot::index_section). Both forms thus share
// one encoder and write the same bytes for the same partition.
struct IndexSection {
  // Implicit, so an IndexGraph passes wherever a section is expected.
  IndexSection(const IndexGraph& index);
  IndexSection(int64_t num_index_nodes,
               std::function<IndexNodeRecord(IndexNodeId)> node)
      : num_index_nodes(num_index_nodes), node(std::move(node)) {}

  int64_t num_index_nodes;
  std::function<IndexNodeRecord(IndexNodeId)> node;
};

bool SaveIndexV2(const IndexSection& index, ByteSink* sink);
// `graph` must be the data graph the index was built over (same node count
// and labels); borrowed by the loaded index.
bool LoadIndexV2(std::string_view data, size_t* pos, const DataGraph* graph,
                 IndexGraph* index, std::string* error);

// DkIndex persistence stores graph + index + the effective per-label
// requirements, which grow retunes and AddSubgraph read. The parts are
// unbundled because the serving layer's checkpointer
// (serve/checkpoint.cc) streams immutable IndexSnapshot state, which holds
// a graph copy and a FrozenView but no DkIndex: `index` must partition
// `graph`, and `reqs` has one entry per label id. The loaded graph is
// written into `*graph` (borrowed by the returned index, so it must outlive
// it); returns nullopt + error on malformed input.
bool SaveDkIndexPartsV2(const DataGraph& graph, const IndexSection& index,
                        const std::vector<int>& reqs, ByteSink* sink);
std::optional<DkIndex> LoadDkIndexV2(std::string_view data, size_t* pos,
                                     DataGraph* graph, std::string* error);

// Whole-buffer decoders for a payload that holds exactly one graph, or
// exactly one graph + index + requirements: the cursor decoders above plus
// the rule that trailing bytes are an error. The file loaders below, the
// checkpoint loader and the WAL's subgraph records all decode through these.
bool LoadGraphV2Exact(std::string_view data, DataGraph* graph,
                      std::string* error);
std::optional<DkIndex> LoadDkIndexV2Exact(std::string_view data,
                                          DataGraph* graph,
                                          std::string* error);

// File-path conveniences over the format above. The Save* variants are
// crash-safe: the bytes are written to `<path>.tmp` and atomically renamed
// over `path` (io/fs_util.h), so an interrupted save never leaves a torn
// file shadowing a previously good one at the canonical name. The Load*
// variants decode through the whole-buffer decoders above.
bool SaveGraphToFile(const DataGraph& graph, const std::string& path);
bool LoadGraphFromFile(const std::string& path, DataGraph* graph,
                       std::string* error);
bool SaveDkIndexToFile(const DkIndex& index, const std::string& path);
std::optional<DkIndex> LoadDkIndexFromFile(const std::string& path,
                                           DataGraph* graph,
                                           std::string* error);

}  // namespace dki

#endif  // DKINDEX_IO_SERIALIZATION_H_
